// Package oracle computes ground truth over the whole distributed object
// graph: which objects are reachable from the union of all sites' local
// roots. The oracle sees everything at once — exactly what no site in the
// system can do (§1: no "up-to-date, consistent, and comprehensive view")
// — which is what makes it the arbiter for the safety and liveness
// invariants of the test suite:
//
//   - Safety: no reachable object may ever be missing (a dangling
//     reference proves the collector reclaimed a live object).
//   - Liveness: at quiescence, no unreachable object may remain (all
//     garbage, including distributed cycles, was detected).
package oracle

import (
	"fmt"

	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/site"
)

// Report is the outcome of one global reachability analysis.
type Report struct {
	// Live counts reachable objects (including root objects).
	Live int
	// Garbage lists objects that exist but are unreachable from every
	// root: undetected garbage (benign residual under message loss).
	Garbage []ids.ObjectID
	// Dangling lists references held by reachable objects whose targets
	// no longer exist: safety violations.
	Dangling []heap.Ref
}

// Safe reports the absence of safety violations.
func (r Report) Safe() bool { return len(r.Dangling) == 0 }

// Clean reports full collection: no residual garbage and no violations.
func (r Report) Clean() bool { return r.Safe() && len(r.Garbage) == 0 }

// String summarises the report.
func (r Report) String() string {
	return fmt.Sprintf("live=%d garbage=%d dangling=%d", r.Live, len(r.Garbage), len(r.Dangling))
}

// Site is the view the oracle needs of one site: a consistent dump of
// its live objects (site.Site satisfies it).
type Site interface {
	Snapshot() (ids.ObjectID, []site.ObjectSnapshot)
}

// Check analyses the composite graph of the given sites.
func Check(sites ...Site) Report {
	objs := make(map[ids.ObjectID]site.ObjectSnapshot)
	var roots []ids.ObjectID
	for _, s := range sites {
		root, snap := s.Snapshot()
		roots = append(roots, root)
		for _, o := range snap {
			objs[o.ID] = o
		}
	}

	reachable := make(map[ids.ObjectID]struct{})
	var stack []ids.ObjectID
	push := func(id ids.ObjectID) {
		if _, ok := reachable[id]; ok {
			return
		}
		if _, ok := objs[id]; !ok {
			return
		}
		reachable[id] = struct{}{}
		stack = append(stack, id)
	}
	for _, root := range roots {
		push(root)
	}

	var report Report
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		report.Live++
		for _, ref := range objs[id].Slots {
			if !ref.Valid() {
				continue
			}
			if _, ok := objs[ref.Obj]; !ok {
				report.Dangling = append(report.Dangling, ref)
				continue
			}
			push(ref.Obj)
		}
	}

	for id := range objs {
		if _, ok := reachable[id]; !ok {
			report.Garbage = append(report.Garbage, id)
		}
	}
	ids.SortObjects(report.Garbage)
	return report
}
