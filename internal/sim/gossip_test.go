package sim

import (
	"testing"

	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/site"
	"causalgc/internal/wire"
)

// TestDroppedDeltaHealedByRefresh: a propagation on a marked edge
// carries only the rows the edge has not carried, so a lost one leaves
// its receiver without rows no later delta re-sends. The refresh round
// ships full payloads, and that is what heals it.
//
// Root₁ holds the four elements of a ring a→b→c→d→a, one per site, and
// drops them one at a time while every frame a site sends in reaction
// to a propagation is lost, through the detach and one refresh round.
// Each element learns its predecessor's state first-hand and, from the
// refresh, one row relayed by it; every row it relays onward is lost on
// an edge that now carries a mark. No element has seen the whole ring,
// and none has anything new to say. The next refresh round, on a healed
// network, re-ships every row in full: the ring is reclaimed and the
// oracle is clean. A refresh that shipped deltas would re-send nothing,
// and the ring would stay forever.
func TestDroppedDeltaHealedByRefresh(t *testing.T) {
	w := NewWorld(5, netsim.Faults{Seed: 1}, site.DefaultOptions())
	s1 := w.Site(1)
	root := s1.Root().Obj
	ring := make([]heap.Ref, 4)
	for i := range ring {
		ref, err := s1.NewRemote(root, ids.SiteID(i+2))
		if err != nil {
			t.Fatal(err)
		}
		ring[i] = ref
	}
	run(t, w)
	for i, el := range ring {
		if err := s1.SendRef(root, el, ring[(i+1)%len(ring)]); err != nil {
			t.Fatal(err)
		}
	}
	run(t, w)

	for _, el := range ring {
		if err := s1.DropRefs(root, el); err != nil {
			t.Fatal(err)
		}
		runLosingRelays(w)
	}
	for _, s := range w.Sites() {
		if err := s.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	runLosingRelays(w)
	settle(t, w)
	if n := reclaimed(w, ring); n != 0 {
		t.Fatalf("%d ring elements reclaimed with every relayed row lost, want 0: the scenario no longer depends on the lost deltas", n)
	}

	refreshSettled(t, w, 1)
	if n := reclaimed(w, ring); n != len(ring) {
		t.Fatalf("%d of %d ring elements reclaimed after a refresh round on a healed network", n, len(ring))
	}
	if rep := w.Check(); !rep.Clean() {
		t.Fatalf("oracle: %v", rep)
	}
}

// runLosingRelays delivers every queued frame, losing each control frame
// a site sends while it handles a delivered propagation.
func runLosingRelays(w *World) {
	st := w.Net().Stats()
	props := func() int {
		_, delivered, _, _, _ := st.Kind(wire.KindPropagate)
		return delivered
	}
	before := 0
	w.Net().SetPartition(func(_, _ ids.SiteID) bool { return props() > before })
	defer w.Net().SetPartition(nil)
	for {
		before = props()
		if !w.Step() {
			return
		}
	}
}

// reclaimed counts the refs whose clusters their sites removed.
func reclaimed(w *World, refs []heap.Ref) int {
	n := 0
	for _, r := range refs {
		if w.Site(r.Cluster.Site).ClusterRemoved(r.Cluster) {
			n++
		}
	}
	return n
}
