package sim

import (
	"fmt"
	"testing"

	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/site"
	"causalgc/internal/wire"
)

// chain builds root (site 1) → A (site 2) → B (site 3), A holding the
// only reference to B.
func chain(t *testing.T, w *World) (a, b heap.Ref) {
	t.Helper()
	s1 := w.Site(1)
	a, err := s1.NewRemote(s1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	b, err = w.Site(2).NewRemote(a.Obj, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// dropHolder makes A garbage and waits for its removal (no Settle: site
// 3 may be down): whatever is left of A's bundle for A→B — the Ē of the
// destroyed edge, or the finalisation bundle of A's removal — now has no
// holder.
func dropHolder(t *testing.T, w *World, a heap.Ref) {
	t.Helper()
	s1 := w.Site(1)
	if err := s1.DropRefs(s1.Root().Obj, a); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.Site(2).ClusterRemoved(a.Cluster) {
		t.Fatal("A not removed")
	}
	if got := w.Site(2).Depths().DestroyRows; got != 1 {
		t.Errorf("site 2 DestroyRows after A's removal = %d, want the un-acknowledged bundle for A→B", got)
	}
}

// reclaimB demands that a bounded number of refresh rounds reclaims B and
// retires the bundle.
func reclaimB(t *testing.T, w *World) {
	t.Helper()
	for r := 0; r < 4 && len(w.Check().Garbage) != 0; r++ {
		if err := w.RefreshAll(); err != nil {
			t.Fatal(err)
		}
		if err := w.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	rep := w.Check()
	if !rep.Safe() {
		t.Fatalf("unsafe: %v", rep)
	}
	if len(rep.Garbage) != 0 {
		t.Fatalf("the lost Ē died with its holder: %v", rep)
	}
	if got := w.Site(2).Depths().DestroyRows; got != 0 {
		t.Errorf("site 2 DestroyRows = %d after the bundle was delivered, want 0", got)
	}
}

// TestLostEbarOutlivesItsHolder: the Ē for A→B is lost on the wire and A
// is collected before any refresh re-ships it. Nobody but site 2's
// destroy ledger holds the bundle any more; it must still reach B.
func TestLostEbarOutlivesItsHolder(t *testing.T) {
	w := NewWorld(3, netsim.Faults{Seed: 1}, site.DefaultOptions())
	a, b := chain(t, w)

	w.Net().SetDropKindProb(wire.KindDestroy, 1)
	if err := w.Site(2).DropRefs(a.Obj, b); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	w.Net().SetDropKindProb(wire.KindDestroy, 0)

	dropHolder(t, w, a)
	reclaimB(t, w)
}

// TestRecoverResendsBundleOfRemovedHolder: B's site is down when A's
// bundle for A→B is sent — the Ē of the destroyed edge, or, with the
// edge intact, the finalisation bundle of A's removal — A is collected,
// and A's site crashes too. The row, its stream sequence and its bundle
// must come back from the snapshot although their holder is a
// tombstone: both are rows of the one destroy ledger.
func TestRecoverResendsBundleOfRemovedHolder(t *testing.T) {
	for _, destroyEdge := range []bool{true, false} {
		for _, shards := range []int{1, 3} {
			name := fmt.Sprintf("shards=%d", shards)
			if !destroyEdge {
				name = "finalisation," + name
			}
			t.Run(name, func(t *testing.T) {
				w, err := newWorld(3, netsim.Faults{Seed: 5}, site.DefaultOptions(), t.TempDir(), 8, shards)
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				a, b := chain(t, w)

				if err := w.Crash(3); err != nil {
					t.Fatal(err)
				}
				if destroyEdge {
					if err := w.Site(2).DropRefs(a.Obj, b); err != nil {
						t.Fatal(err)
					}
					if err := w.Run(); err != nil {
						t.Fatal(err)
					}
				}
				dropHolder(t, w, a)

				if err := w.Site(2).Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := w.Crash(2); err != nil {
					t.Fatal(err)
				}
				if err := w.Restart(3); err != nil {
					t.Fatal(err)
				}
				if err := w.Restart(2); err != nil {
					t.Fatal(err)
				}
				reclaimB(t, w)
			})
		}
	}
}

// TestFinalisationBundleSurvivesPartition: a finalisation bundle is a
// destroy-ledger row, and the destroy ledger has no cap. With more
// removals than any cap would hold outstanding toward a partitioned
// site, every bundle must still reach its target once the partition
// heals, and every row must retire.
func TestFinalisationBundleSurvivesPartition(t *testing.T) {
	const chains = 1030
	w := NewWorld(3, netsim.Faults{Seed: 1}, site.DefaultOptions())
	s1, s2 := w.Site(1), w.Site(2)
	as := make([]heap.Ref, chains)
	for i := range as {
		a, err := s1.NewRemote(s1.Root().Obj, 2)
		if err != nil {
			t.Fatal(err)
		}
		as[i] = a
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for _, a := range as {
		if _, err := s2.NewRemote(a.Obj, 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Settle(); err != nil {
		t.Fatal(err)
	}

	w.Net().SetPartition(func(from, to ids.SiteID) bool { return from == 2 && to == 3 })
	for _, a := range as {
		if err := s1.DropRefs(s1.Root().Obj, a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Settle(); err != nil {
		t.Fatal(err)
	}
	for _, a := range as {
		if !s2.ClusterRemoved(a.Cluster) {
			t.Fatalf("A %v not removed", a)
		}
	}
	if got := s2.Depths().DestroyRows; got != chains {
		t.Errorf("site 2 DestroyRows under the partition = %d, want every finalisation bundle (%d)", got, chains)
	}
	w.Net().SetPartition(nil)

	rounds := 0
	for ; rounds < 4 && len(w.Check().Garbage) != 0; rounds++ {
		if err := w.RefreshAll(); err != nil {
			t.Fatal(err)
		}
		if err := w.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	rep := w.Check()
	if !rep.Safe() {
		t.Fatalf("unsafe: %v", rep)
	}
	if len(rep.Garbage) != 0 {
		t.Fatalf("%d objects still garbage after %d refresh rounds: a finalisation bundle was lost", len(rep.Garbage), rounds)
	}
	if got := s2.Depths().DestroyRows; got != 0 {
		t.Errorf("site 2 DestroyRows = %d after every bundle was delivered, want 0", got)
	}
}
