package causalgc

import (
	"fmt"

	"causalgc/internal/ids"
	"causalgc/internal/mutator"
	"causalgc/internal/site"
)

// needNodes guards the workload builders against undersized clusters:
// a remote create aimed at an unhosted site would either panic or mint
// references to objects that can never exist.
func needNodes(c *Cluster, n int, what string) error {
	if len(c.nodes) < n {
		return fmt.Errorf("causalgc: %s needs a cluster of at least %d nodes, got %d", what, n, len(c.nodes))
	}
	return nil
}

// clusterWorld adapts a Cluster to the workload builders' World.
type clusterWorld struct{ c *Cluster }

func (w clusterWorld) Site(id ids.SiteID) *site.Site { return w.c.Node(id).rt }

func (w clusterWorld) Sites() []*site.Site {
	rts := make([]*site.Site, len(w.c.nodes))
	for i, n := range w.c.nodes {
		rts[i] = n.rt
	}
	return rts
}

func (w clusterWorld) Run() error { return w.c.Run() }

func (w clusterWorld) Step() bool { return w.c.Step() }

// Scenario is the paper's Fig 3 object graph built on a cluster of (at
// least) four nodes: root 1 on site 1, objects 2, 3, 4 on their own
// sites, edges 2→3, 2→4, 4→3, 3→4, 4→2.
type Scenario struct {
	inner *mutator.Scenario
	// Obj2, Obj3, Obj4 are the paper's numbered global roots.
	Obj2, Obj3, Obj4 Ref
}

// BuildPaperScenario constructs the Fig 3 graph on the cluster; the
// returned scenario is quiescent.
func BuildPaperScenario(c *Cluster) (*Scenario, error) {
	if err := needNodes(c, 4, "BuildPaperScenario"); err != nil {
		return nil, err
	}
	s, err := mutator.BuildPaperScenario(clusterWorld{c})
	if err != nil {
		return nil, err
	}
	return &Scenario{inner: s, Obj2: s.Obj2, Obj3: s.Obj3, Obj4: s.Obj4}, nil
}

// DropRootEdge performs the paper's e2,3: the root destroys its edge to
// object 2, making the whole cycle {2,3,4} garbage.
func (s *Scenario) DropRootEdge() error { return s.inner.DropRootEdge() }

// List is a distributed linked structure — a doubly-linked list or a
// ring — with each element on its own site, reachable from site 1's root
// until detached.
type List struct {
	inner *mutator.DLL
	// Elems are the list elements in order; element i lives on site i+2.
	Elems []Ref
}

// BuildDLL builds a k-element doubly-linked list (the §4 comparison
// workload) on a cluster of at least k+1 nodes.
func BuildDLL(c *Cluster, k int) (*List, error) {
	if err := needNodes(c, k+1, "BuildDLL"); err != nil {
		return nil, err
	}
	d, err := mutator.BuildDLL(clusterWorld{c}, k)
	if err != nil {
		return nil, err
	}
	return &List{inner: d, Elems: d.Elems}, nil
}

// Detach drops every root reference at once, turning the whole list into
// distributed garbage.
func (l *List) Detach() error { return l.inner.Detach() }

// BuildRing builds a k-element unidirectional ring (a pure distributed
// cycle) on a cluster of at least k+1 nodes, reachable through a single
// root edge.
func BuildRing(c *Cluster, k int) (*List, error) {
	if err := needNodes(c, k+1, "BuildRing"); err != nil {
		return nil, err
	}
	d, err := mutator.BuildRing(clusterWorld{c}, k)
	if err != nil {
		return nil, err
	}
	return &List{inner: d, Elems: d.Elems}, nil
}

// DetachRing drops the single root edge, detaching the ring.
func (l *List) DetachRing() error { return l.inner.DetachRing() }

// ChurnConfig tunes the randomised churn workload.
type ChurnConfig = mutator.ChurnConfig

// ChurnStats reports what the churn driver did.
type ChurnStats = mutator.ChurnStats

// Churn runs a randomised but always-legal mutator workload over the
// cluster: creates (local and remote), reference copies (first-party and
// third-party) and drops, including root drops — which is what
// manufactures distributed garbage, cycles included.
func Churn(c *Cluster, cfg ChurnConfig) (ChurnStats, error) {
	return mutator.Churn(clusterWorld{c}, cfg)
}
