package sim

import (
	"sync"
	"testing"

	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/mutator"
	"causalgc/internal/netsim"
	"causalgc/internal/site"
	"causalgc/internal/wire"
)

// TestChurnAckDropSchedules is the fuzz lane for the acknowledged-
// retirement protocol itself: randomised churn under reordering while
// most FrameAcks are dropped. Losing the retirement plane must cost
// only redundant re-sends — never safety, and never convergence: after
// the ack channel heals, bounded refresh rounds must reclaim every
// residual object AND drain the re-send state, because the protocol
// may retire a row only on an ack that really covers it.
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
	run(t, w)
	// x acquires tgt: the edge-assert resolving the introduction is
	// dropped, and so would any ack be.
	if err := s1.SendRef(s1.Root().Obj, x, tgt); err != nil {
		t.Fatal(err)
	}
	run(t, w)
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
	refreshSettled(t, w, 1)
	if err := s1.DropRefs(s1.Root().Obj, x); err != nil {
		t.Fatal(err)
	}
	if err := s1.DropRefs(s1.Root().Obj, tgt); err != nil {
		t.Fatal(err)
	}
	settle(t, w)
	refreshSettled(t, w, 1)
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
	w, err := newWorld(4, netsim.Faults{Seed: 11}, site.DefaultOptions(), t.TempDir(), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := mutator.Churn(w, mutator.ChurnConfig{Seed: 77, Ops: 120, StepsBetweenOps: 2}); err != nil {
		t.Fatal(err)
	}
	settle(t, w)
	// Two refresh+settle rounds let every straggler re-send once and its
	// ack retire the row.
	refreshSettled(t, w, 2)
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
	refreshSettled(t, w, 1)
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

// TestOutboxRetainsEveryFrameForCrashedPeer drives a durable site
// against a dead peer well past a thousand unacknowledged frames: the
// outbox has no cap, so every frame stays retained until the recovered
// peer acknowledges it, and each retirement reaches the AckObserver.
func TestOutboxRetainsEveryFrameForCrashedPeer(t *testing.T) {
	const frames = 1100
	watcher := &ackWatcher{}
	opts := site.DefaultOptions()
	opts.Observer = watcher
	w, err := newWorld(2, netsim.Faults{Seed: 5}, opts, t.TempDir(), 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s1 := w.Site(1)
	// Each Create has its own holder: one holder of every remote object
	// would have each refresh round ship its 1 100-row log to all 1 100
	// of them, quadratic in memory.
	holders := make([]heap.Ref, frames)
	for i := range holders {
		h, err := s1.NewLocal(s1.Root().Obj)
		if err != nil {
			t.Fatal(err)
		}
		holders[i] = h
	}
	if err := w.Crash(2); err != nil {
		t.Fatal(err)
	}
	for _, h := range holders {
		if _, err := s1.NewRemote(h.Obj, 2); err != nil {
			t.Fatal(err)
		}
	}
	if got := s1.FrameStats().OutboxRetained; got != frames {
		t.Fatalf("OutboxRetained = %d toward the dead peer, want all %d", got, frames)
	}
	// The peer recovers: its acks retire what it processes, and the
	// stream sequences keep the re-sends idempotent.
	if err := w.Restart(2); err != nil {
		t.Fatal(err)
	}
	run(t, w)
	refreshSettled(t, w, 1)
	if rep := w.Check(); !rep.Safe() {
		t.Fatalf("unsafe after the peer recovered: %v", rep)
	}
	if got := s1.FrameStats().OutboxRetained; got != 0 {
		t.Errorf("OutboxRetained = %d after the peer acknowledged, want 0", got)
	}
	watcher.mu.Lock()
	retired := watcher.retired
	watcher.mu.Unlock()
	if retired != frames {
		t.Errorf("observer saw %d frames retired, want %d", retired, frames)
	}
}

// TestNegativeAssertsRetainedThroughPartition: the assert journal has
// no cap. Thousands of transfers reach a dead holder while its site is
// cut off from the targets' owner, so every negative assert expiring
// those introductions is lost to the partition. Each must stay
// journaled — an expired introduction appears in no destroy bundle, so
// a row dropped from the journal pins its target forever — and reach
// the owner once the partition heals.
func TestNegativeAssertsRetainedThroughPartition(t *testing.T) {
	const targets = 4100
	w := NewWorld(3, netsim.Faults{Seed: 1}, site.DefaultOptions())
	s1, s2 := w.Site(1), w.Site(2)
	root := s1.Root().Obj
	h, err := s1.NewRemote(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]heap.Ref, targets)
	for i := range ts {
		if ts[i], err = s1.NewRemote(root, 3); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, w)
	if err := s1.DropRefs(root, h); err != nil {
		t.Fatal(err)
	}
	settle(t, w)
	if !s2.ClusterRemoved(h.Cluster) {
		t.Fatal("H not collected before the transfers")
	}

	w.Net().SetPartition(func(from, to ids.SiteID) bool { return from == 2 && to == 3 })
	for _, tgt := range ts {
		if err := s1.SendRef(root, h, tgt); err != nil {
			t.Fatal(err)
		}
	}
	run(t, w)
	if got := s2.Depths().AssertRows; got != targets {
		t.Fatalf("site 2 journals %d negative asserts under the partition, want all %d", got, targets)
	}
	for _, tgt := range ts {
		if err := s1.DropRefs(root, tgt); err != nil {
			t.Fatal(err)
		}
	}
	w.Net().SetPartition(nil)

	rounds := 0
	for ; rounds < 4 && !w.Check().Clean(); rounds++ {
		refreshSettled(t, w, 1)
	}
	if rep := w.Check(); !rep.Clean() {
		t.Fatalf("not clean after %d refresh rounds (a lost negative assert pins its target): %v", rounds, rep)
	}
	if got := s2.Depths().AssertRows; got != 0 {
		t.Errorf("site 2 AssertRows = %d after the owner acknowledged, want 0", got)
	}
}

// ackWatcher counts AckObserver retirements.
type ackWatcher struct {
	mu      sync.Mutex
	retired int
}

func (c *ackWatcher) ClusterRemoved(ids.SiteID, ids.ClusterID) {}
func (c *ackWatcher) Collected(ids.SiteID, heap.CollectStats)  {}

func (c *ackWatcher) FrameRetired(_ ids.SiteID, _ ids.SiteID, n int) {
	c.mu.Lock()
	c.retired += n
	c.mu.Unlock()
}

var (
	_ site.Observer    = (*ackWatcher)(nil)
	_ site.AckObserver = (*ackWatcher)(nil)
)
