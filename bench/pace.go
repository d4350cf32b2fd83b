package main

import (
	"math"
	"sync/atomic"
	"time"
)

// The box that defined this benchmark is a 2-core VM whose cores flip,
// every few hundred milliseconds, between a fast state and one about a
// quarter slower (a busy neighbour on the sibling hardware thread), and
// the share of a ten-second run spent in the slow state ranges from a
// fifth to all of it. Identical deterministic work then differs by
// 20-40 % between runs, which no averaging inside a run removes. So the
// timed part is paced: every paceEvery of wall time each client
// goroutine stops and runs a burst, a fixed piece of reference work
// that lives here, uses no code of the repository and allocates
// nothing. The ratio of the burst's nominal time to its measured time
// is the machine's speed right there, and every timing is reported at
// reference speed: a latency sample is scaled by the latest burst's
// ratio, the timed wall time by the ratio over all bursts of the run
// (bursts and work slow down together, so the ratio of their totals
// does not depend on which state the machine was in when). The raw
// readings are printed beside them.

const (
	// paceEvery is well below the time the machine stays in one state.
	paceEvery = 40 * time.Millisecond
	// burstNominal is one burst in the fast state of the box that defined
	// the benchmark. It fixes the unit of every reported timing, so it is
	// frozen with the workloads' operation counts.
	burstNominal = 2500 * time.Microsecond
	burstKeys    = 4096
	burstSteps   = 60_000
)

// pace is shared by the clients of one run.
type pace struct {
	bursts   atomic.Int64
	measured atomic.Int64  // Σ burst time, ns
	latest   atomic.Uint64 // math.Float64bits of the latest burst's ratio
}

func newPace() *pace {
	p := &pace{}
	p.latest.Store(math.Float64bits(1))
	return p
}

// ratio is reference speed over the speed the latest burst measured:
// the factor that puts a timing taken just now at reference speed.
func (p *pace) ratio() float64 { return math.Float64frombits(p.latest.Load()) }

// runRatio is the same over every burst of the run.
func (p *pace) runRatio() float64 {
	if p.bursts.Load() == 0 {
		return 1
	}
	return float64(p.bursts.Load()) * float64(burstNominal) / float64(p.measured.Load())
}

// pacer is one client goroutine's side of the pace: its own burst
// kernel (two clients burst at once) and the time of its last burst.
type pacer struct {
	p     *pace
	table map[[2]uint64]uint64
	last  time.Time
	spent time.Duration // Σ this client's burst time
	best  time.Duration // its fastest burst: what burstNominal is calibrated from
}

func (p *pace) pacer() *pacer {
	pc := &pacer{p: p, table: make(map[[2]uint64]uint64, burstKeys)}
	for i := uint64(0); i < burstKeys; i++ {
		pc.table[[2]uint64{i % 7, i}] = i
	}
	return pc
}

// tick runs a burst if one is due. Callers tick between operations.
func (pc *pacer) tick() {
	if time.Since(pc.last) >= paceEvery {
		pc.burst()
	}
}

// burst is the reference work: look-ups and in-place updates of a map
// keyed by a small struct, the operation the system under test spends
// most of its time on, walking the keys with a multiplicative stride.
func (pc *pacer) burst() {
	t0 := time.Now()
	var sum, k uint64
	for i := 0; i < burstSteps; i++ {
		k = (k*2654435761 + 1) % burstKeys
		key := [2]uint64{k % 7, k}
		v := pc.table[key]
		pc.table[key] = v + sum&1
		sum += v
	}
	pc.table[[2]uint64{0, 0}] = sum // keeps the loop's result alive
	now := time.Now()
	d := now.Sub(t0)
	pc.last = now
	pc.spent += d
	if pc.best == 0 || d < pc.best {
		pc.best = d
	}
	pc.p.bursts.Add(1)
	pc.p.measured.Add(int64(d))
	pc.p.latest.Store(math.Float64bits(float64(burstNominal) / float64(d)))
}
