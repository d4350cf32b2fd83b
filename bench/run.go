package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"causalgc"
	"causalgc/persist"
	"causalgc/transport"
)

// runConfig is what the command line fixes for a run.
type runConfig struct {
	seed    int64
	seconds float64
	setups  int    // how many times set-up is run; the median is reported
	tmpDir  string // persistence directories are made here
	outDir  string // span files are written here
	// memProfile, if set, receives a heap profile of the settled system.
	memProfile string
}

// run is one measurement of one workload in progress.
type run struct {
	cfg      runConfig
	spec     spec
	wl       workload
	rec      *recorder
	pace     *pace
	env      *env
	units    int
	clients  []*client
	problems []string
	checks   int // oracle checks taken during the timed part
	skipped  int // operations Churn legally skipped
	// Traced durable run: the snapshot count last seen on site 1 and the
	// slowest commit that overlapped a snapshot.
	snapshotsSeen   int
	checkpointStall time.Duration
}

// newClient registers a load generator; called before its goroutine
// starts.
func (r *run) newClient() *client {
	c := &client{rec: r.rec, pc: r.pace.pacer()}
	if r.rec != nil && r.env.dir != "" {
		c.slow = r.checkpointBehind
	}
	r.clients = append(r.clients, c)
	return c
}

// checkpointBehind is told of a slow commit on site 1: if the site's
// journal wrote a snapshot since the last slow commit, the commit
// waited for it (the checkpoint runs under the site lock).
func (r *run) checkpointBehind(latency time.Duration) {
	p := r.env.mons[0].Snapshot().Persist
	if p == nil || p.Snapshots == r.snapshotsSeen {
		return
	}
	r.snapshotsSeen = p.Snapshots
	r.checkpointStall = max(r.checkpointStall, latency)
}

func (r *run) checkpointStallMs() float64 {
	return float64(r.checkpointStall) / float64(time.Millisecond)
}

// problem records a correctness violation; the run still finishes and
// prints what it measured.
func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// result is what one measurement reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Units     int                `json:"units"`
	Unit      string             `json:"unit"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Skipped   int                `json:"skipped"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples is the sample count behind each percentile metric.
	Samples map[string]int `json:"samples"`
	// State is what the numbers were measured on (heap sizes, WAL tail).
	State map[string]float64 `json:"state"`
	// Attribution is the traced run's cost table (attribution.go).
	Attribution []costRow `json:"attribution,omitempty"`

	// settled is the time from the first op until the system was
	// quiescent and oracle-clean, at reference speed, in seconds.
	settled float64
}

// counts is a copy of every counter surface the program exposes, summed
// over the nodes; metrics are differences of two copies.
type counts struct {
	obs      counters
	engine   causalgc.EngineStats
	frames   causalgc.FrameStats
	kinds    map[string]transport.KindStats
	persist  persist.Stats // traced run only (read through the monitors)
	site1    persist.Stats // site 1 alone, for commit attribution
	envs     int64
	envFrame int64
	mem      runtime.MemStats
}

func (r *run) counts() counts {
	e := r.env
	c := counts{obs: e.obs.counters(), kinds: e.kindStats()}
	for _, n := range e.nodes {
		es, fs := n.Stats(), n.FrameStats()
		c.engine.Removed += es.Removed
		c.engine.Evaluations += es.Evaluations
		c.engine.PropagationsSent += es.PropagationsSent
		c.engine.DestroysSent += es.DestroysSent
		c.engine.AssertsSent += es.AssertsSent
		c.engine.AssertResends += es.AssertResends
		c.engine.DestroyResends += es.DestroyResends
		c.engine.LegacyResends += es.LegacyResends
		c.engine.ResendsSuppressed += es.ResendsSuppressed
		c.engine.RowsRetired += es.RowsRetired
		c.engine.StaleDeliveries += es.StaleDeliveries
		c.frames.OutboxEvicted += fs.OutboxEvicted
		c.frames.OutboxResends += fs.OutboxResends
		c.frames.AcksSent += fs.AcksSent
		c.frames.FramesRetired += fs.FramesRetired
		c.frames.AdvancesSent += fs.AdvancesSent
	}
	for i, m := range e.mons {
		p := m.Snapshot().Persist
		if p == nil {
			continue
		}
		if i == 0 {
			c.site1 = *p
		}
		c.persist.Appends += p.Appends
		c.persist.Syncs += p.Syncs
		c.persist.SyncNanos += p.SyncNanos
		c.persist.Snapshots += p.Snapshots
		c.persist.SyncMaxNanos = max(c.persist.SyncMaxNanos, p.SyncMaxNanos)
	}
	if e.wrap != nil {
		c.envs, c.envFrame = e.wrap.envelopes.Load(), e.wrap.enveloped.Load()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

func (c counts) traffic() (msgs, bytes int) {
	for _, k := range c.kinds {
		msgs += k.Sent
		bytes += k.Bytes
	}
	return msgs, bytes
}

// setUp builds the system under test: cluster, live heap, working set.
func (r *run) setUp() error {
	e, err := r.wl.build(r)
	if err != nil {
		return err
	}
	r.env = e
	if err := e.preload(r.spec.live); err != nil {
		return err
	}
	return r.wl.warm(r)
}

const (
	minSetups   = 3
	setupBudget = time.Second
	maxSetups   = 41
)

// measure runs one workload once and computes its metrics. With traced
// set, spans are recorded and the per-layer
// counts are added to the metrics.
func measure(sp spec, cfg runConfig, traced bool) (*result, error) {
	r := &run{cfg: cfg, spec: sp, units: sp.units(cfg.seconds)}
	// Set-up is cheap next to the timed part, so it is repeated until it
	// has been run cfg.setups times and for setupBudget in total (at most
	// maxSetups times): the median of a handful of millisecond set-ups
	// would not be steady. The last system built is the one measured.
	var setups, rawSetups []float64
	var spent time.Duration
	setupPace := newPace().pacer()
	for {
		r.wl = sp.make()
		r.pace = newPace()
		if traced {
			r.rec = newRecorder(sp.name) // inert until the timed part starts
		}
		t0 := time.Now()
		err := r.setUp()
		d := time.Since(t0)
		setupPace.burst()
		rawSetups = append(rawSetups, d.Seconds())
		setups = append(setups, d.Seconds()*setupPace.p.ratio())
		spent += d
		enough := len(setups) >= cfg.setups && (cfg.setups == 1 || spent >= setupBudget || len(setups) >= maxSetups)
		if err == nil && enough {
			break
		}
		if r.env != nil {
			if cerr := r.env.close(); err == nil {
				err = cerr
			}
			r.env = nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
	}
	e := r.env
	defer e.close()

	res := &result{
		Workload: sp.name, Seed: cfg.seed, Seconds: cfg.seconds, Units: r.units, Unit: sp.unit, Traced: traced,
		Metrics: map[string]float64{}, Samples: map[string]int{}, State: map[string]float64{},
	}
	res.State["live_objects_at_start"] = float64(e.totalObjects())
	res.State["sites"] = float64(sp.sites)

	runtime.GC()
	base := r.counts()
	if r.rec != nil {
		r.rec.on.Store(true)
	}
	cpu0 := cpuTime()
	start := time.Now()
	driveErr := r.wl.drive(r)
	drainStart := time.Now()
	var drainRounds int
	if driveErr == nil {
		var err error
		if drainRounds, err = e.drainClean(); err != nil {
			r.problem("%v", err)
		}
	}
	elapsed := time.Since(start)
	drain := time.Since(drainStart)
	res.State["cpu_ms"] = float64(cpuTime()-cpu0) / 1e6
	end := r.counts()
	if r.rec != nil {
		r.rec.on.Store(false)
	}
	if driveErr != nil {
		r.problem("drive: %v", driveErr)
	}
	// The clients' bursts are not part of the work: two clients burst
	// side by side, so each one's bursts took its share of the wall time.
	// speed puts what is left at reference speed (pace.go).
	var bursts, best time.Duration
	for _, c := range r.clients {
		bursts += c.pc.spent / time.Duration(len(r.clients))
		if best == 0 || c.pc.best < best {
			best = c.pc.best
		}
	}
	res.State["burst_best_us"] = float64(best) / 1e3
	timed := elapsed - bursts
	speed := r.pace.runRatio()
	res.settled = timed.Seconds() * speed
	res.State["timed_ms"] = float64(timed) / 1e6
	res.State["bursts"] = float64(r.pace.bursts.Load())
	heap := heapMiB()
	if cfg.memProfile != "" {
		if err := writeHeapProfile(cfg.memProfile); err != nil {
			return nil, err
		}
	}
	res.State["live_objects_at_end"] = float64(e.totalObjects())

	if driveErr == nil {
		if err := r.wl.after(r); err != nil {
			r.problem("%v", err)
		}
	}

	// Operations and failures.
	var lat, rawLat []int64
	drift := 0.0
	for _, c := range r.clients {
		res.Attempted += c.ops
		res.Failed += c.failed
		res.State["ops_in_commits"] += float64(c.committed)
		if c.firstFail != nil {
			r.problem("operation failed: %v", c.firstFail)
		}
		lat, rawLat = append(lat, c.lat...), append(rawLat, c.rawLat...)
		drift += c.tl.drift() / float64(len(r.clients))
	}
	res.Skipped = r.skipped
	if res.Attempted == 0 {
		res.Attempted = 1 // the contract wants at least one; Correct is false
		r.problem("no operation was attempted")
	}
	attempted := float64(res.Attempted)

	// End-to-end metrics.
	m := res.Metrics
	lat, rawLat = sortedCopy(lat), sortedCopy(rawLat)
	rl, rawRl, unreclaimed := e.obs.reclaimLatencies()
	if unreclaimed > 0 {
		r.problem("%d timed garbage structures were never reclaimed", unreclaimed)
	}
	rl, rawRl = sortedCopy(rl), sortedCopy(rawRl)
	// The timings are reported at reference speed (pace.go); the clock's
	// own readings go to the per-layer list.
	_, m["setup_s"], _ = quartiles(setups)
	m["settled_ops_per_s"] = attempted / res.settled
	m["commit_p50_us"] = float64(percentile(lat, 50)) / 1e3
	m["reclaim_p50_us"] = float64(percentile(rl, 50)) / 1e3
	_, m["causalgc.raw_setup_s"], _ = quartiles(rawSetups)
	m["causalgc.raw_settled_ops_per_s"] = attempted / timed.Seconds()
	m["causalgc.raw_commit_p50_us"] = float64(percentile(rawLat, 50)) / 1e3
	m["causalgc.raw_reclaim_p50_us"] = float64(percentile(rawRl, 50)) / 1e3
	m["causalgc.speed_index"] = 1 / speed
	m["causalgc.commit_p90_us"] = float64(percentile(lat, 90)) / 1e3
	res.Samples["commit"] = len(lat)
	m["causalgc.reclaim_p90_us"] = float64(percentile(rl, 90)) / 1e3
	res.Samples["reclaim"] = len(rl)
	msgs0, bytes0 := base.traffic()
	msgs1, bytes1 := end.traffic()
	reclaimed := float64(end.obs.swept - base.obs.swept)
	res.State["objects_reclaimed"] = reclaimed
	res.State["messages_sent"] = float64(msgs1 - msgs0)
	if reclaimed > 0 {
		m["msgs_per_reclaimed_obj"] = float64(msgs1-msgs0) / reclaimed
		m["bytes_per_reclaimed_obj"] = float64(bytes1-bytes0) / reclaimed
	} else {
		r.problem("no object was reclaimed")
	}
	m["causalgc.drift_ratio"] = drift
	m["heap_mb_settled"] = heap
	res.State["oracle_checks"] = float64(r.checks + 1)
	res.State["drain_refresh_rounds"] = float64(drainRounds)

	r.workloadMetrics(res)
	if traced {
		r.tracedMetrics(res, base, end, lat, timed, drain)
		if err := r.rec.write(cfg.outDir); err != nil {
			r.problem("write spans: %v", err)
		}
		res.State["spans"] = float64(len(r.rec.spans))
	}

	res.Problems = r.problems
	res.Correct = len(r.problems) == 0 && res.Failed == 0
	return res, nil
}

// workloadMetrics adds the numbers only one workload can measure. They
// are listed per layer in BENCHMARK.json because the contract wants
// every end-to-end metric from every workload; the comparator still
// applies their own bounds (metrics.go).
func (r *run) workloadMetrics(res *result) {
	m := res.Metrics
	m["site.recover_ms"] = 0
	m["core.converge_rounds"] = 0
	switch wl := r.wl.(type) {
	case *singletons:
		if wl.durable {
			m["site.recover_ms"] = wl.recoverMs
			res.State["raw_recover_ms"] = wl.rawRecoverMs
			res.State["recovered_objects"] = float64(wl.recoveredObjs)
			res.State["wal_tail_bytes"] = float64(wl.walTailBytes)
			res.State["wal_tail_records"] = float64(wl.walTailRecs)
			res.State["snapshot_bytes"] = float64(wl.snapshotBytes)
		}
	case *churn:
		m["core.converge_rounds"] = float64(wl.convergeRounds)
		res.State["residual_garbage_at_heal"] = float64(wl.residual)
		res.State["churn_creates"] = float64(wl.stats.Creates)
		res.State["churn_shares"] = float64(wl.stats.Shares)
		res.State["churn_drops"] = float64(wl.stats.Drops)
	}
}

// writeHeapProfile is called right after heapMiB's collection, so the
// profile shows what heap_mb_settled counted.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuTime is the process's user plus system CPU time, in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
