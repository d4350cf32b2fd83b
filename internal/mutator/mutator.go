// Package mutator builds the workloads of the paper's discussion and
// evaluation: the Fig 3 scenario, the doubly-linked lists of the §4
// complexity comparison, rings (pure distributed cycles), trees, and a
// randomised churn driver used by the safety stress tests.
//
// All builders drive the public site API only, exactly as an application
// would.
package mutator

import (
	"fmt"

	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/site"
)

// World is the slice of a running system the workload builders need: site
// lookup and message delivery. internal/sim.World implements it for the
// deterministic harness; the public causalgc.Cluster implements it for
// any transport.
type World interface {
	// Site returns the site instance (a plain runtime or a lock-striped
	// sharded one) of the given site.
	Site(ids.SiteID) *site.Site
	// Sites returns every site instance, in site order.
	Sites() []*site.Site
	// Run delivers messages until the substrate is quiet.
	Run() error
	// Step delivers at most one message and reports whether it did.
	// Substrates without single-step delivery (concurrent networks)
	// return false.
	Step() bool
}

// Scenario is the paper's Fig 3 object graph: root 1 on site 1, objects
// 2, 3, 4 on their own sites, edges 2→3, 2→4, 4→3, 3→4, 4→2.
type Scenario struct {
	World World
	// Obj2, Obj3, Obj4 are the paper's numbered global roots.
	Obj2, Obj3, Obj4 heap.Ref
}

// BuildPaperScenario constructs Fig 3 on a fresh 4-site world. Each event
// of Fig 4 happens in order; the returned scenario is quiescent.
func BuildPaperScenario(w World) (*Scenario, error) {
	s1, s2 := w.Site(1), w.Site(2)

	obj2, err := s1.NewRemote(s1.Root().Obj, 2) // e1,1 / e2,1
	if err != nil {
		return nil, fmt.Errorf("create 2: %w", err)
	}
	if err := w.Run(); err != nil {
		return nil, err
	}
	obj3, err := s2.NewRemote(obj2.Obj, 3) // e3,1
	if err != nil {
		return nil, fmt.Errorf("create 3: %w", err)
	}
	obj4, err := s2.NewRemote(obj2.Obj, 4) // e4,1
	if err != nil {
		return nil, fmt.Errorf("create 4: %w", err)
	}
	if err := w.Run(); err != nil {
		return nil, err
	}
	steps := []struct {
		to, target heap.Ref
		label      string
	}{
		{obj4, obj3, "e3,2: edge 4→3"},
		{obj3, obj4, "e4,2: edge 3→4"},
		{obj4, obj2, "e2,2: edge 4→2"},
	}
	for _, st := range steps {
		if err := s2.SendRef(obj2.Obj, st.to, st.target); err != nil {
			return nil, fmt.Errorf("%s: %w", st.label, err)
		}
	}
	if err := w.Run(); err != nil {
		return nil, err
	}
	return &Scenario{World: w, Obj2: obj2, Obj3: obj3, Obj4: obj4}, nil
}

// DropRootEdge performs e2,3: the root destroys its edge to 2, making the
// whole cycle {2,3,4} garbage.
func (s *Scenario) DropRootEdge() error {
	s1 := s.World.Site(1)
	return s1.DropRefs(s1.Root().Obj, s.Obj2)
}

// DLL is a doubly-linked list of k elements, each on its own site,
// initially reachable from site 1's root: the recursive data structure of
// the §4 comparison with Schelvis's algorithm ("double linked lists, or
// any cyclic structure containing subcycles").
type DLL struct {
	World World
	// Elems are the list elements in order; element i lives on site i+2.
	Elems []heap.Ref
}

// BuildDLL builds a k-element doubly-linked list on a world with at least
// k+1 sites. The builder (site 1's root) creates every element, links
// neighbours with forward and backward references (third-party
// transfers), and keeps a direct reference to every element so the list
// is fully reachable until Detach.
func BuildDLL(w World, k int) (*DLL, error) {
	if k < 1 {
		return nil, fmt.Errorf("mutator: DLL needs k >= 1, got %d", k)
	}
	s1 := w.Site(1)
	root := s1.Root().Obj
	elems := make([]heap.Ref, k)
	for i := 0; i < k; i++ {
		ref, err := s1.NewRemote(root, ids.SiteID(i+2))
		if err != nil {
			return nil, fmt.Errorf("create element %d: %w", i, err)
		}
		elems[i] = ref
	}
	if err := w.Run(); err != nil {
		return nil, err
	}
	for i := 0; i+1 < k; i++ {
		// Forward i → i+1 and backward i+1 → i: the subcycles of §4.
		if err := s1.SendRef(root, elems[i], elems[i+1]); err != nil {
			return nil, fmt.Errorf("link %d→%d: %w", i, i+1, err)
		}
		if err := s1.SendRef(root, elems[i+1], elems[i]); err != nil {
			return nil, fmt.Errorf("link %d→%d: %w", i+1, i, err)
		}
	}
	if err := w.Run(); err != nil {
		return nil, err
	}
	return &DLL{World: w, Elems: elems}, nil
}

// Detach drops every root reference, disconnecting the whole list at
// once: the §4 workload "the k elements of a double linked list that
// becomes disconnected from the object graph".
func (d *DLL) Detach() error {
	s1 := d.World.Site(1)
	for _, e := range d.Elems {
		if err := s1.DropRefs(s1.Root().Obj, e); err != nil {
			return err
		}
	}
	return nil
}

// BuildRing builds a k-element unidirectional ring (a pure distributed
// cycle), each element on its own site, reachable from site 1's root via
// a single edge to element 0.
func BuildRing(w World, k int) (*DLL, error) {
	if k < 1 {
		return nil, fmt.Errorf("mutator: ring needs k >= 1, got %d", k)
	}
	s1 := w.Site(1)
	root := s1.Root().Obj
	elems := make([]heap.Ref, k)
	for i := 0; i < k; i++ {
		ref, err := s1.NewRemote(root, ids.SiteID(i+2))
		if err != nil {
			return nil, fmt.Errorf("create element %d: %w", i, err)
		}
		elems[i] = ref
	}
	if err := w.Run(); err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		next := elems[(i+1)%k]
		if err := s1.SendRef(root, elems[i], next); err != nil {
			return nil, fmt.Errorf("link ring %d: %w", i, err)
		}
	}
	if err := w.Run(); err != nil {
		return nil, err
	}
	// Narrow the root set to a single entry edge, so detaching is one drop.
	for i := 1; i < k; i++ {
		if err := s1.DropRefs(root, elems[i]); err != nil {
			return nil, err
		}
	}
	if err := w.Run(); err != nil {
		return nil, err
	}
	return &DLL{World: w, Elems: elems}, nil
}

// DetachRing drops the single root edge to element 0.
func (d *DLL) DetachRing() error {
	s1 := d.World.Site(1)
	return s1.DropRefs(s1.Root().Obj, d.Elems[0])
}
