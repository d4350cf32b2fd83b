package schelvis

import (
	"testing"

	"causalgc/internal/ids"
	"causalgc/internal/netsim"
)

// buildDLL creates a k-element doubly-linked list, one vertex per site,
// rooted at site 1's root vertex, and returns detectors and vertex IDs.
func buildDLL(t *testing.T, k int) (*netsim.Sim, []*Detector, ids.ClusterID, []ids.ClusterID) {
	t.Helper()
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	horizon := k + 2
	dets := make([]*Detector, k+1)
	for i := 0; i <= k; i++ {
		dets[i] = New(ids.SiteID(i+1), net, horizon, nil)
	}
	root := ids.ClusterID{Site: 1, Seq: 1, Root: true}
	dets[0].AddVertex(root)
	elems := make([]ids.ClusterID, k)
	for i := 0; i < k; i++ {
		elems[i] = ids.ClusterID{Site: ids.SiteID(i + 2), Seq: 1}
		dets[i+1].AddVertex(elems[i])
	}
	// Root holds every element (as mutator.BuildDLL does), plus the
	// doubly-linked neighbour edges.
	for i := 0; i < k; i++ {
		dets[0].CreateEdge(root, elems[i])
	}
	for i := 0; i+1 < k; i++ {
		dets[i+1].CreateEdge(elems[i], elems[i+1])
		dets[i+2].CreateEdge(elems[i+1], elems[i])
	}
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	for _, d := range dets {
		d.Kick()
	}
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	return net, dets, root, elems
}

func TestSchelvisKeepsLiveDLL(t *testing.T) {
	_, dets, _, elems := buildDLL(t, 6)
	for i, e := range elems {
		if dets[i+1].Removed() != 0 {
			t.Fatalf("live element %v collected", e)
		}
	}
}

func TestSchelvisCollectsDetachedDLL(t *testing.T) {
	net, dets, root, elems := buildDLL(t, 6)
	for _, e := range elems {
		dets[0].DestroyEdge(root, e)
	}
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	removed := 0
	for _, d := range dets {
		removed += d.Removed()
	}
	if removed != len(elems) {
		t.Fatalf("removed %d of %d detached elements", removed, len(elems))
	}
}

func TestSchelvisCollectsCycle(t *testing.T) {
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	d1 := New(1, net, 8, nil)
	d2 := New(2, net, 8, nil)
	d3 := New(3, net, 8, nil)
	root := ids.ClusterID{Site: 1, Seq: 1, Root: true}
	a := ids.ClusterID{Site: 2, Seq: 1}
	b := ids.ClusterID{Site: 3, Seq: 1}
	d1.AddVertex(root)
	d2.AddVertex(a)
	d3.AddVertex(b)
	d1.CreateEdge(root, a)
	d2.CreateEdge(a, b)
	d3.CreateEdge(b, a)
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	d1.Kick()
	d2.Kick()
	d3.Kick()
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	if d2.Removed() != 0 || d3.Removed() != 0 {
		t.Fatal("live cycle collected")
	}
	d1.DestroyEdge(root, a)
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	if d2.Removed() != 1 || d3.Removed() != 1 {
		t.Fatal("detached cycle not collected (Schelvis is comprehensive)")
	}
}

// TestSchelvisQuadraticOnDLL verifies the §4 complexity claim's shape:
// messages to collect a detached k-element doubly-linked list grow
// quadratically (count-to-infinity over the subcycles), so the ratio
// messages(2k)/messages(k) approaches 4.
func TestSchelvisQuadraticOnDLL(t *testing.T) {
	cost := func(k int) int {
		net, dets, root, elems := buildDLL(t, k)
		base := net.Stats().TotalSent()
		for _, e := range elems {
			dets[0].DestroyEdge(root, e)
		}
		if _, err := net.Run(0); err != nil {
			t.Fatal(err)
		}
		return net.Stats().TotalSent() - base
	}
	c16, c32 := cost(16), cost(32)
	ratio := float64(c32) / float64(c16)
	t.Logf("detach cost: k=16 %d msgs, k=32 %d msgs, ratio %.2f", c16, c32, ratio)
	if ratio < 2.8 {
		t.Errorf("expected superlinear (≈4×) growth, got ratio %.2f", ratio)
	}
}
