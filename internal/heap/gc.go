package heap

import (
	"slices"

	"causalgc/internal/ids"
)

// CollectStats reports one local collection.
type CollectStats struct {
	// Marked counts objects found reachable.
	Marked int
	// Swept counts objects reclaimed.
	Swept int
	// Roots counts the root set used: local roots plus the entry objects
	// (global roots) of non-removed clusters (Fig 1).
	Roots int
}

// Collect runs one per-site mark-sweep collection (§2.1): the root set is
// the union of the site's local roots (the root cluster's objects) and the
// global roots (every entry object of a cluster not yet removed by GGD).
// Unreachable objects are reclaimed; their dropped references perform edge
// accounting, so collecting the last proxy for a remote cluster emits an
// edge-destruction notification through Hooks (§3.4: "an edge-destruction
// control message is sent by the local garbage collector when the proxy
// for that remote object is collected").
//
// Collection is independent of every other site — the decoupling of local
// garbage collection from global garbage detection that the paper's §2
// sets up.
func (h *Heap) Collect() CollectStats {
	var stats CollectStats

	// Mark.
	var stack []*Object
	push := func(o *Object) {
		if o != nil && !o.marked {
			o.marked = true
			stack = append(stack, o)
		}
	}
	if rc := h.clusters[h.rootClu]; rc != nil {
		for _, o := range rc.objects {
			push(o)
			stats.Roots++
		}
	}
	for _, c := range h.clusters {
		if c.removed || c.id == h.rootClu {
			continue
		}
		for id := range c.entries {
			push(h.objects[id])
			stats.Roots++
		}
	}
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		stats.Marked++
		for _, r := range o.slots {
			if r.Valid() && r.Obj.Site == h.site {
				push(h.objects[r.Obj])
			}
		}
	}

	// Sweep.
	var dead []*Object
	for _, o := range h.objects {
		if !o.marked {
			dead = append(dead, o)
		}
	}
	// Deterministic sweep order, so the destruction messages emitted by
	// edge accounting are reproducible under a fixed seed.
	slices.SortFunc(dead, compareObjects)
	for _, o := range dead {
		for i, r := range o.slots {
			if r.Valid() {
				o.slots[i] = NilRef
				h.refDropped(o, r)
			}
		}
		c := h.clusters[o.cluster]
		delete(c.objects, o.id)
		delete(c.entries, o.id)
		delete(h.objects, o.id)
		if h.track != nil {
			h.track(o.id, false)
		}
		// Shells of GGD-removed clusters are dropped once empty; live
		// cluster shells persist (their identity is still a GGD vertex).
		if c.removed && len(c.objects) == 0 {
			delete(h.clusters, c.id)
		}
		stats.Swept++
	}

	// Clear mark bits for the next cycle.
	for _, o := range h.objects {
		o.marked = false
	}
	return stats
}

// LocallyReachable reports whether obj is reachable from the current root
// set without running a collection (a read-only mark). Used by tests and
// the oracle.
func (h *Heap) LocallyReachable(obj ids.ObjectID) bool {
	seen := make(map[ids.ObjectID]struct{})
	var stack []ids.ObjectID
	push := func(id ids.ObjectID) {
		if _, ok := seen[id]; ok {
			return
		}
		if _, ok := h.objects[id]; !ok {
			return
		}
		seen[id] = struct{}{}
		stack = append(stack, id)
	}
	if rc := h.clusters[h.rootClu]; rc != nil {
		for id := range rc.objects {
			push(id)
		}
	}
	for _, c := range h.clusters {
		if c.removed || c.id == h.rootClu {
			continue
		}
		for id := range c.entries {
			push(id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id == obj {
			return true
		}
		for _, r := range h.objects[id].slots {
			if r.Valid() && r.Obj.Site == h.site {
				push(r.Obj)
			}
		}
	}
	_, ok := seen[obj]
	return ok
}
