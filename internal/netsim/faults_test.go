package netsim_test

import (
	"math/rand"
	"testing"

	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/wire"
)

// TestFaultEligibleExemptsApplicationPayloads checks the classification
// directly: mutator RPC (Create, RefTransfer) is exempt from fault
// injection, GGD control traffic (Destroy, Propagate, Assert) is not.
func TestFaultEligibleExemptsApplicationPayloads(t *testing.T) {
	app := []netsim.Payload{wire.Create{}, wire.RefTransfer{}}
	for _, p := range app {
		if netsim.FaultEligible(p) {
			t.Errorf("%T: application payload must be exempt from faults", p)
		}
	}
	control := []netsim.Payload{wire.Destroy{}, wire.Propagate{}, wire.Assert{}}
	for _, p := range control {
		if !netsim.FaultEligible(p) {
			t.Errorf("%T: control payload must be fault-eligible", p)
		}
	}
}

// TestSimDropsOnlyControlPayloads sends application and control payloads
// through a simulator that drops everything it may: the application
// payloads must all arrive, the control payloads must all be lost.
func TestSimDropsOnlyControlPayloads(t *testing.T) {
	sim := netsim.NewSim(netsim.Faults{Seed: 3, DropProb: 1})
	var apps, controls int
	sim.Register(2, func(_ ids.SiteID, p netsim.Payload) {
		if netsim.FaultEligible(p) {
			controls++
		} else {
			apps++
		}
	})
	const n = 20
	for i := 0; i < n; i++ {
		sim.Send(1, 2, wire.Create{})
		sim.Send(1, 2, wire.Propagate{})
	}
	if _, err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if apps != n {
		t.Errorf("delivered %d of %d application payloads under DropProb=1", apps, n)
	}
	if controls != 0 {
		t.Errorf("delivered %d control payloads under DropProb=1, want 0", controls)
	}
	if _, got, _, _, _ := sim.Stats().Kind(wire.KindCreate); got != n {
		t.Errorf("stats: %d creates delivered, want %d", got, n)
	}
	if _, _, dropped, _, _ := sim.Stats().Kind(wire.KindPropagate); dropped != n {
		t.Errorf("stats: %d propagates dropped, want %d", dropped, n)
	}
}

// script is a rand.Source that replays scripted draws and counts them:
// lo makes rng.Float64 (Int63 / 2^63) return 0, below every positive
// probability; hi makes it return 1 - 2^-53, above every probability
// below 1.
type script struct {
	draws []int64
	used  int
}

const (
	lo = int64(0)
	hi = int64(1<<63 - 1<<10)
)

func (s *script) Int63() int64 {
	v := hi // an unscripted draw never fires a fault; used still counts it
	if s.used < len(s.draws) {
		v = s.draws[s.used]
	}
	s.used++
	return v
}

func (s *script) Seed(int64) {}

// TestFaultPlanDrawOrder pins the one decision point of the fault plan:
// the ladder is partition (no draw) → DropProb → DropKindProb → DupProb,
// a rung draws only if its probability is positive and the ladder got
// that far, and application payloads draw nothing. Every seeded
// schedule in the repository depends on exactly this consumption of the
// random stream.
func TestFaultPlanDrawOrder(t *testing.T) {
	cut := func(_, _ ids.SiteID) bool { return true }
	all := netsim.Faults{DropProb: 0.5, DropKindProb: map[string]float64{wire.KindAssert: 0.5}, DupProb: 0.5}
	for _, tc := range []struct {
		name   string
		faults netsim.Faults
		p      netsim.Payload
		draws  []int64
		want   netsim.Verdict
		used   int
	}{
		{"application payload: delivered, nothing drawn, partition ignored",
			netsim.Faults{DropProb: 1, DupProb: 1, Partitioned: cut}, wire.Create{}, nil, netsim.Deliver, 0},
		{"partition drops before any draw",
			netsim.Faults{DropProb: 0.5, DupProb: 0.5, Partitioned: cut}, wire.Assert{}, nil, netsim.Drop, 0},
		{"first draw decides the drop", all, wire.Assert{}, []int64{lo}, netsim.Drop, 1},
		{"second draw decides the kind drop", all, wire.Assert{}, []int64{hi, lo}, netsim.Drop, 2},
		{"third draw decides the duplication", all, wire.Assert{}, []int64{hi, hi, lo}, netsim.Duplicate, 3},
		{"three misses deliver", all, wire.Assert{}, []int64{hi, hi, hi}, netsim.Deliver, 3},
		{"another kind's probability draws nothing", all, wire.Destroy{}, []int64{hi, lo}, netsim.Duplicate, 2},
		{"zero probabilities draw nothing", netsim.Faults{DupProb: 0.5}, wire.Assert{}, []int64{lo}, netsim.Duplicate, 1},
		{"empty plan delivers without drawing", netsim.Faults{}, wire.Assert{}, nil, netsim.Deliver, 0},
	} {
		src := &script{draws: tc.draws}
		got := tc.faults.Decide(rand.New(src), 1, 2, tc.p)
		if got != tc.want || src.used != tc.used {
			t.Errorf("%s: verdict %v after %d draws, want %v after %d", tc.name, got, src.used, tc.want, tc.used)
		}
	}
}
