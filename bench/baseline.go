package main

import (
	"fmt"

	"causalgc/internal/baseline/schelvis"
	"causalgc/internal/baseline/tracing"
	"causalgc/internal/baseline/wrc"
	"causalgc/internal/ids"
	"causalgc/internal/mutator"
	"causalgc/internal/netsim"
	"causalgc/internal/sim"
	"causalgc/internal/site"
)

// The baseline rows price the cycle-reclaim structures under the three
// comparison collectors the repository hosts, in messages per object of
// the structure, the way eval.DLLSchelvisCost does for one of them.
// They are counts on the seeded simulator and repeat exactly.

// shape is a cycle-reclaim structure as a bare graph: element i lives on
// site i+2, the root on site 1.
type shape struct {
	name  string
	elems int
	edges [][2]int // element → element
	roots []int    // elements the root references; dropping them detaches
}

func ringShape(k int) shape {
	s := shape{name: fmt.Sprintf("ring%d", k), elems: k, roots: []int{0}}
	for i := 0; i < k; i++ {
		s.edges = append(s.edges, [2]int{i, (i + 1) % k})
	}
	return s
}

func dllShape(k int) shape {
	s := shape{name: fmt.Sprintf("dll%d", k), elems: k}
	for i := 0; i < k; i++ {
		s.roots = append(s.roots, i)
		if i+1 < k {
			s.edges = append(s.edges, [2]int{i, i + 1}, [2]int{i + 1, i})
		}
	}
	return s
}

// The paper's Fig 3: objects 2, 3, 4 with edges 2→3, 2→4, 4→3, 3→4, 4→2.
var paperShape = shape{name: "paper", elems: 3, roots: []int{0},
	edges: [][2]int{{0, 1}, {0, 2}, {2, 1}, {1, 2}, {2, 0}}}

var cycleShapes = []shape{paperShape, dllShape(8), ringShape(8), ringShape(4)}

var rootVertex = ids.ClusterID{Site: 1, Seq: 1, Root: true}

func (s shape) elem(i int) ids.ClusterID { return ids.ClusterID{Site: ids.SiteID(i + 2), Seq: 1} }

// schelvisCost detaches the shape under Schelvis's algorithm and returns
// the messages that took and the vertices it removed.
func schelvisCost(s shape) (msgs, removed int, err error) {
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	dets := make([]*schelvis.Detector, s.elems+1)
	for j := range dets {
		dets[j] = schelvis.New(ids.SiteID(j+1), net, s.elems+2, nil)
	}
	dets[0].AddVertex(rootVertex)
	for i := 0; i < s.elems; i++ {
		dets[i+1].AddVertex(s.elem(i))
	}
	for _, r := range s.roots {
		dets[0].CreateEdge(rootVertex, s.elem(r))
	}
	for _, e := range s.edges {
		dets[e[0]+1].CreateEdge(s.elem(e[0]), s.elem(e[1]))
	}
	if _, err := net.Run(0); err != nil {
		return 0, 0, err
	}
	for _, d := range dets {
		d.Kick()
	}
	if _, err := net.Run(0); err != nil {
		return 0, 0, err
	}
	base := net.Stats().TotalSent()
	for _, r := range s.roots {
		dets[0].DestroyEdge(rootVertex, s.elem(r))
	}
	if _, err := net.Run(0); err != nil {
		return 0, 0, err
	}
	for _, d := range dets {
		removed += d.Removed()
	}
	return net.Stats().TotalSent() - base, removed, nil
}

// wrcCost detaches the shape under weighted reference counting. The
// root creates every element and hands out copies, as the builders do.
// WRC never reclaims a cycle, so removed stays below the element count.
func wrcCost(s shape) (msgs, removed int, err error) {
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	sites := make([]*wrc.Site, s.elems+1)
	for j := range sites {
		sites[j] = wrc.New(ids.SiteID(j+1), net, nil)
	}
	sites[0].NewObject(rootVertex, true)
	for i := 0; i < s.elems; i++ {
		if err := sites[0].Give(rootVertex, sites[i+1].NewObject(s.elem(i), false)); err != nil {
			return 0, 0, err
		}
	}
	for _, e := range s.edges {
		ref, err := sites[0].Copy(rootVertex, s.elem(e[1]))
		if err != nil {
			return 0, 0, err
		}
		if err := sites[e[0]+1].Give(s.elem(e[0]), ref); err != nil {
			return 0, 0, err
		}
	}
	// Narrow the root set to the shape's root edges (part of the build).
	isRoot := make(map[int]bool)
	for _, r := range s.roots {
		isRoot[r] = true
	}
	for i := 0; i < s.elems; i++ {
		if !isRoot[i] {
			if err := sites[0].Drop(rootVertex, s.elem(i)); err != nil {
				return 0, 0, err
			}
		}
	}
	if _, err := net.Run(0); err != nil {
		return 0, 0, err
	}
	base := net.Stats().TotalSent()
	for _, r := range s.roots {
		if err := sites[0].Drop(rootVertex, s.elem(r)); err != nil {
			return 0, 0, err
		}
	}
	if _, err := net.Run(0); err != nil {
		return 0, 0, err
	}
	for _, st := range sites {
		removed += st.Removed()
	}
	return net.Stats().TotalSent() - base, removed, nil
}

// tracingCost builds and detaches the shape on real site runtimes that
// never sweep, then runs one global tracing epoch over them.
func tracingCost(s shape) (msgs, found int, err error) {
	w := sim.NewWorld(s.elems+1, netsim.Faults{Seed: 1}, site.Options{AutoCollect: false})
	switch s.name {
	case "paper":
		sc, err := mutator.BuildPaperScenario(w)
		if err != nil {
			return 0, 0, err
		}
		err = sc.DropRootEdge()
		if err != nil {
			return 0, 0, err
		}
	case "dll8":
		l, err := mutator.BuildDLL(w, s.elems)
		if err != nil {
			return 0, 0, err
		}
		if err := l.Detach(); err != nil {
			return 0, 0, err
		}
	default:
		l, err := mutator.BuildRing(w, s.elems)
		if err != nil {
			return 0, 0, err
		}
		if err := l.DetachRing(); err != nil {
			return 0, 0, err
		}
	}
	if err := w.Run(); err != nil {
		return 0, 0, err
	}
	col := tracing.New(w.Sites(), w.Net())
	var driveErr error
	garbage := col.RunEpoch(func() {
		if err := w.Run(); err != nil && driveErr == nil {
			driveErr = err
		}
	})
	st := w.Net().Stats()
	return st.Sent("trace.mark") + st.Sent("trace.start") + st.Sent("trace.ack"), len(garbage), driveErr
}

// baselines fills the three baseline metrics: messages per object over
// the equal-shares mix of the four structures.
func (p *probeSet) baselines() error {
	var objects, sch, trc, wr, wrcRemoved int
	for _, s := range cycleShapes {
		objects += s.elems
		m, removed, err := schelvisCost(s)
		if err != nil || removed != s.elems {
			return fmt.Errorf("baseline schelvis %s: removed %d of %d: %v", s.name, removed, s.elems, err)
		}
		sch += m
		m, found, err := tracingCost(s)
		if err != nil || found < s.elems {
			return fmt.Errorf("baseline tracing %s: found %d of %d: %v", s.name, found, s.elems, err)
		}
		trc += m
		m, removed, err = wrcCost(s)
		if err != nil {
			return fmt.Errorf("baseline wrc %s: %w", s.name, err)
		}
		wr += m
		wrcRemoved += removed
	}
	p.metrics["baseline.schelvis_msgs_per_obj"] = float64(sch) / float64(objects)
	p.metrics["baseline.tracing_msgs_per_obj"] = float64(trc) / float64(objects)
	p.metrics["baseline.wrc_msgs_per_obj"] = float64(wr) / float64(objects)
	p.metrics["baseline.wrc_reclaimed_share"] = float64(wrcRemoved) / float64(objects)
	return nil
}
