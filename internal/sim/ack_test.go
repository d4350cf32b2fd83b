package sim

import (
	"sync"
	"testing"

	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/mutator"
	"causalgc/internal/netsim"
	"causalgc/internal/site"
	"causalgc/internal/wire"
)

// TestChurnAckDropSchedules is the fuzz lane for the acknowledged-
// retirement protocol itself: randomised churn under reordering while
// most FrameAcks and StreamAdvance advisories are dropped. Losing the
// retirement plane must cost only redundant re-sends — never safety,
// and never convergence: after the ack channel heals, bounded refresh
// rounds must reclaim every residual object AND drain the re-send
// state, because the protocol may retire a row only on an ack that
// really covers it.
func TestChurnAckDropSchedules(t *testing.T) {
	seeds := int64(15)
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(1); seed <= seeds; seed++ {
		w := NewWorld(5, netsim.Faults{
			Seed:    seed,
			Reorder: true,
			DropKindProb: map[string]float64{
				wire.KindFrameAck: 0.8,
				wire.KindAdvance:  0.8,
			},
		}, site.DefaultOptions())
		if _, err := mutator.Churn(w, mutator.ChurnConfig{
			Seed:            seed * 41,
			Ops:             200,
			StepsBetweenOps: 2,
		}); err != nil {
			t.Fatalf("seed %d: churn: %v", seed, err)
		}
		if err := w.Settle(); err != nil {
			t.Fatalf("seed %d: settle: %v", seed, err)
		}
		rep := w.Check()
		if !rep.Safe() {
			t.Fatalf("seed %d: SAFETY violation under ack loss: %v", seed, rep)
		}

		// Heal the retirement plane and recover.
		w.Net().SetDropKindProb(wire.KindFrameAck, 0)
		w.Net().SetDropKindProb(wire.KindAdvance, 0)
		for i := 0; i < 4; i++ {
			if err := w.RefreshAll(); err != nil {
				t.Fatalf("seed %d: refresh: %v", seed, err)
			}
			if err := w.Settle(); err != nil {
				t.Fatalf("seed %d: settle: %v", seed, err)
			}
		}
		rep = w.Check()
		if !rep.Safe() {
			t.Fatalf("seed %d: SAFETY violation after ack recovery: %v", seed, rep)
		}
		if len(rep.Garbage) != 0 {
			t.Errorf("seed %d: residual garbage after healed refresh rounds: %v", seed, rep)
		}
	}
}

// TestAckDropCannotRetireUndelivered pins the cumulative-watermark
// invariant: dropping every assert AND every ack at once must leave the
// journal rows retained (nothing was settled, so nothing may retire) —
// the rows drain only once the channel heals and a re-send gets
// through.
func TestAckDropCannotRetireUndelivered(t *testing.T) {
	w := NewWorld(3, netsim.Faults{
		Seed: 3,
		DropKindProb: map[string]float64{
			wire.KindAssert:   1,
			wire.KindFrameAck: 1,
			wire.KindAdvance:  1,
		},
	}, site.DefaultOptions())
	s1 := w.Site(1)
	x, err := s1.NewRemote(s1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := s1.NewRemote(s1.Root().Obj, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// x acquires tgt: the edge-assert resolving the introduction is
	// dropped, and so would any ack be.
	if err := s1.SendRef(s1.Root().Obj, x, tgt); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.RefreshAll(); err != nil {
			t.Fatal(err)
		}
	}
	// The row must still be journaled: every carrier was dropped.
	if got := w.Site(2).EngineStats().RowsRetired; got != 0 {
		t.Fatalf("rows retired with the entire retirement plane down: %d", got)
	}
	// Heal; one refresh resolves and the acks drain the journal.
	w.Net().SetDropKindProb(wire.KindAssert, 0)
	w.Net().SetDropKindProb(wire.KindFrameAck, 0)
	w.Net().SetDropKindProb(wire.KindAdvance, 0)
	if err := w.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	if err := w.Settle(); err != nil {
		t.Fatal(err)
	}
	if err := s1.DropRefs(s1.Root().Obj, x); err != nil {
		t.Fatal(err)
	}
	if err := s1.DropRefs(s1.Root().Obj, tgt); err != nil {
		t.Fatal(err)
	}
	if err := w.Settle(); err != nil {
		t.Fatal(err)
	}
	if err := w.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	if err := w.Settle(); err != nil {
		t.Fatal(err)
	}
	rep := w.Check()
	if !rep.Safe() || len(rep.Garbage) != 0 {
		t.Fatalf("not clean after heal: %v", rep)
	}
}

// TestRefreshQuiescentReshipsNothing is the steady-state acceptance
// criterion of the acknowledged-retirement protocol: after a fault-free
// workload settles and its acks drain, further refresh rounds re-ship
// ZERO journal rows, edge-destruction bundles (finalisation bundles
// included) and outbox frames — refresh traffic no longer grows with
// history.
func TestRefreshQuiescentReshipsNothing(t *testing.T) {
	w, err := NewDurableWorld(4, netsim.Faults{Seed: 11}, site.DefaultOptions(), t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := mutator.Churn(w, mutator.ChurnConfig{Seed: 77, Ops: 120, StepsBetweenOps: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Settle(); err != nil {
		t.Fatal(err)
	}
	// Two refresh+settle rounds let every straggler re-send once and its
	// ack retire the row.
	for i := 0; i < 2; i++ {
		if err := w.RefreshAll(); err != nil {
			t.Fatal(err)
		}
		if err := w.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	type counters struct{ asserts, destroys, outbox int }
	snap := func() counters {
		var c counters
		for _, s := range w.Sites() {
			es := s.EngineStats()
			c.asserts += es.AssertResends
			c.destroys += es.DestroyResends
			c.outbox += s.FrameStats().OutboxResends
		}
		return c
	}
	before := snap()
	if err := w.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	if err := w.Settle(); err != nil {
		t.Fatal(err)
	}
	after := snap()
	if after != before {
		t.Fatalf("quiescent refresh re-shipped retained state: before=%+v after=%+v", before, after)
	}
	for _, s := range w.Sites() {
		if n := s.FrameStats().OutboxRetained; n != 0 {
			t.Errorf("site %v: %d outbox frames still retained at quiescence", s.ID(), n)
		}
	}
}

// TestOutboxHardCapSurfacesEviction drives a durable site against a
// dead peer until the outbox backstop fires, and checks the eviction is
// counted in FrameStats and delivered to the AckObserver — the loss
// used to be silent.
func TestOutboxHardCapSurfacesEviction(t *testing.T) {
	watcher := &capWatcher{}
	opts := site.DefaultOptions()
	opts.Observer = watcher
	w, err := NewDurableWorld(2, netsim.Faults{Seed: 5}, opts, t.TempDir(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Crash(2); err != nil {
		t.Fatal(err)
	}
	s1 := w.Site(1)
	// Every NewRemote to the dead peer retains a frame; past the cap the
	// oldest is evicted.
	for i := 0; i < 1100; i++ {
		if _, err := s1.NewRemote(s1.Root().Obj, 2); err != nil {
			t.Fatal(err)
		}
	}
	st := s1.FrameStats()
	if st.OutboxEvicted == 0 {
		t.Fatal("outbox hard cap fired without counting evictions")
	}
	if st.OutboxRetained != 1024 {
		t.Errorf("OutboxRetained = %d, want the 1024 cap", st.OutboxRetained)
	}
	watcher.mu.Lock()
	evicted := watcher.evicted
	watcher.mu.Unlock()
	if evicted != st.OutboxEvicted {
		t.Errorf("observer saw %d evictions, stats count %d", evicted, st.OutboxEvicted)
	}
	// The peer recovers: its acks retire what it processes, and the
	// dedup layer keeps the re-sends idempotent.
	if err := w.Restart(2); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	if err := w.Settle(); err != nil {
		t.Fatal(err)
	}
	if rep := w.Check(); !rep.Safe() {
		t.Fatalf("unsafe after backstop + recovery: %v", rep)
	}
}

// capWatcher counts AckObserver events.
type capWatcher struct {
	mu      sync.Mutex
	evicted int
	retired int
}

func (c *capWatcher) ClusterRemoved(ids.SiteID, ids.ClusterID) {}
func (c *capWatcher) Collected(ids.SiteID, heap.CollectStats)  {}

func (c *capWatcher) FrameEvicted(_ ids.SiteID, _ ids.SiteID, _ core.Stream, n int) {
	c.mu.Lock()
	c.evicted += n
	c.mu.Unlock()
}

func (c *capWatcher) FrameRetired(_ ids.SiteID, _ ids.SiteID, _ core.Stream, n int) {
	c.mu.Lock()
	c.retired += n
	c.mu.Unlock()
}

var (
	_ site.Observer    = (*capWatcher)(nil)
	_ site.AckObserver = (*capWatcher)(nil)
)
