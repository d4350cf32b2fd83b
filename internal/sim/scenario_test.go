package sim

import (
	"testing"

	"causalgc/internal/heap"
	"causalgc/internal/mutator"
	"causalgc/internal/netsim"
	"causalgc/internal/site"
)

// paperScenario constructs the global root graph of Fig 3 with
// mutator.BuildPaperScenario: four sites, one object per site (so the
// object graph and the global root graph coincide, §3.1).
//
//	e2,1: root 1 creates 2     e3,1: 2 creates 3     e4,1: 2 creates 4
//	e3,2: 2 sends 4 a ref to 3 (edge 4→3)
//	e4,2: 2 sends 3 a ref to 4 (edge 3→4)
//	e2,2: 2 sends its own ref to 4 (edge 4→2)
func paperScenario(t *testing.T) (*World, *mutator.Scenario) {
	t.Helper()
	w := NewWorld(4, netsim.Faults{Seed: 1}, site.DefaultOptions())
	sc, err := mutator.BuildPaperScenario(w)
	if err != nil {
		t.Fatal(err)
	}
	return w, sc
}

// collectPaperCycle is e2,3 on the Fig 3 graph: the root drops its edge
// to 2 and the world settles. It returns the world, the scenario and
// the messages sent from the drop on. TestPaperScenarioCycleCollected
// asserts on it, and E5 counts from it.
func collectPaperCycle(t *testing.T) (*World, *mutator.Scenario, int) {
	t.Helper()
	w, sc := paperScenario(t)
	base := w.Net().Stats().TotalSent()
	if err := sc.DropRootEdge(); err != nil {
		t.Fatal(err)
	}
	settle(t, w)
	return w, sc, w.Net().Stats().TotalSent() - base
}

func TestPaperScenarioBeforeDrop(t *testing.T) {
	w, sc := paperScenario(t)

	// Everything is live: 4 roots + 3 objects.
	rep := w.Check()
	if !rep.Safe() {
		t.Fatalf("unsafe before drop: %v", rep)
	}
	if len(rep.Garbage) != 0 {
		t.Fatalf("unexpected garbage before drop: %v", rep)
	}
	for _, ref := range []heap.Ref{sc.Obj2, sc.Obj3, sc.Obj4} {
		if !w.Site(ref.Obj.Site).HasObject(ref.Obj) {
			t.Fatalf("object %v missing before drop", ref)
		}
	}
	// Collections must not reclaim anything live.
	if err := w.CollectAll(); err != nil {
		t.Fatal(err)
	}
	if got := w.Check(); !got.Safe() || len(got.Garbage) != 0 {
		t.Fatalf("after collect: %v", got)
	}
}

// TestPaperScenarioCycleCollected is the headline behaviour (§3.6, Fig 8):
// when the root drops its edge to 2, the distributed cycle {2,3,4} —
// spanning three sites, invisible to any per-site collector — is detected
// by GGD and reclaimed, with no global consensus round.
func TestPaperScenarioCycleCollected(t *testing.T) {
	w, sc, _ := collectPaperCycle(t)
	rep := w.Check()
	if !rep.Safe() {
		t.Fatalf("unsafe after settle: %v", rep)
	}
	if len(rep.Garbage) != 0 {
		t.Fatalf("residual garbage after settle: %v", rep)
	}
	for _, ref := range []heap.Ref{sc.Obj2, sc.Obj3, sc.Obj4} {
		if w.Site(ref.Obj.Site).HasObject(ref.Obj) {
			t.Errorf("object %v not collected", ref)
		}
		if !w.Site(ref.Obj.Site).ClusterRemoved(ref.Cluster) {
			t.Errorf("cluster %v not removed", ref.Cluster)
		}
	}
	// 4 root objects remain, one per site.
	if got := w.TotalObjects(); got != 4 {
		t.Errorf("TotalObjects = %d, want 4", got)
	}
}

// TestPaperScenarioLiveThroughCycle keeps the cycle reachable via a second
// root edge (1→4): nothing may be collected even though the 1→2 edge dies.
func TestPaperScenarioLiveThroughCycle(t *testing.T) {
	w, sc := paperScenario(t)
	s1, s2 := w.Site(1), w.Site(2)
	obj2, obj4 := sc.Obj2, sc.Obj4

	// Root 1 additionally references 4 (2 holds 4's ref and sends it to
	// the root: a third-party transfer to site 1).
	if err := s2.SendRef(obj2.Obj, s1.Root(), obj4); err != nil {
		t.Fatal(err)
	}
	run(t, w)

	if err := s1.DropRefs(s1.Root().Obj, obj2); err != nil {
		t.Fatal(err)
	}
	settle(t, w)

	rep := w.Check()
	if !rep.Safe() {
		t.Fatalf("unsafe: %v", rep)
	}
	// The whole cycle stays live: 4 → 2 and 4 → 3 and 2,3,4 reachable via
	// 1 → 4.
	for _, ref := range []heap.Ref{obj2, sc.Obj3, obj4} {
		if !w.Site(ref.Obj.Site).HasObject(ref.Obj) {
			t.Errorf("live object %v was collected (UNSAFE)", ref)
		}
	}
	if len(rep.Garbage) != 0 {
		t.Errorf("unexpected garbage: %v", rep)
	}

	// Now drop the second root edge too: the cycle must die.
	if err := s1.DropRefs(s1.Root().Obj, obj4); err != nil {
		t.Fatal(err)
	}
	settle(t, w)
	rep = w.Check()
	if !rep.Safe() {
		t.Fatalf("unsafe after final drop: %v", rep)
	}
	if len(rep.Garbage) != 0 {
		t.Errorf("residual garbage after final drop: %v", rep)
	}
	if got := w.TotalObjects(); got != 4 {
		t.Errorf("TotalObjects = %d, want 4", got)
	}
}

// TestPaperScenarioReachabilityFacts checks the §3.2 vector-time facts on
// the implementation's logs: object 2 is reachable from 4 after e2,2
// (edge 4→2 exists), visible as a live column for 4 in 2's own row... the
// authoritative record lives at 4 until propagation, so we check 4's log
// holds a live on-behalf stamp for the edge.
func TestPaperScenarioReachabilityFacts(t *testing.T) {
	w, sc := paperScenario(t)
	obj2, obj4 := sc.Obj2, sc.Obj4

	log4 := w.Site(4).LogSnapshot(obj4.Cluster)
	if log4 == nil {
		t.Fatal("no log for cluster 4")
	}
	ob2 := log4.PeekOB(obj2.Cluster)
	if ob2 == nil {
		t.Fatal("4 keeps no entries on behalf of 2 despite holding its reference")
	}
	if got := ob2.Auth.Get(obj4.Cluster); !got.Live() {
		t.Errorf("edge 4→2 stamp at 4 = %v, want live", got)
	}

	// 2's own vector knows its creator (edge 1→2) via the piggybacked
	// stamp.
	log2 := w.Site(2).LogSnapshot(obj2.Cluster)
	if log2 == nil {
		t.Fatal("no log for cluster 2")
	}
	rootCl := w.Site(1).Root().Cluster
	if got := log2.Own().Get(rootCl); !got.Live() {
		t.Errorf("edge 1→2 stamp at 2 = %v, want live", got)
	}
	// And 2 knows of edge 4→2: either the pending self-introduction hint
	// (DV_2[2][4]++) or 4's edge-assert already resolved it into an
	// authoritative stamp.
	if !log2.Own().Get(obj4.Cluster).Live() && !log2.Hints().Has(obj4.Cluster) {
		t.Error("2 has neither a live stamp nor a pending hint for edge 4→2")
	}
}

// TestLazyNoControlMessages asserts Fig 7's property: reference exchange,
// including third-party transfers, triggers no synchronous control
// traffic and no GGD rounds — only the deferred idempotent edge-asserts
// this reproduction adds for soundness (one per first acquisition; see
// the core package documentation and DESIGN.md §2).
func TestLazyNoControlMessages(t *testing.T) {
	w, _ := paperScenario(t)
	stats := w.Net().Stats()
	if n := stats.Sent("ggd.destroy"); n != 0 {
		t.Errorf("destroy messages during pure mutation = %d, want 0", n)
	}
	if n := stats.Sent("ggd.prop"); n != 0 {
		t.Errorf("propagation messages during pure mutation = %d, want 0", n)
	}
	// One edge-assert per first remote acquisition via transfer: edges
	// 4→3, 3→4, 4→2.
	if n := stats.Sent("ggd.assert"); n != 3 {
		t.Errorf("assert messages = %d, want 3", n)
	}
	// Mutator traffic: 3 creations + 3 ref transfers.
	if n := stats.Sent("mut.create"); n != 3 {
		t.Errorf("create messages = %d, want 3", n)
	}
	if n := stats.Sent("mut.ref"); n != 3 {
		t.Errorf("ref messages = %d, want 3", n)
	}
}
