// Package heap implements the per-site object heap of the paper's model
// (§2): objects are contiguous containers of references; the object graph
// is partitioned over sites; references may cross site boundaries.
//
// Vertices of the global root graph are clusters (§3.5): at the finest
// granularity every object is its own cluster, reproducing the paper's
// per-global-root model exactly; coarser policies group objects to shrink
// vectors and logs. Every inter-cluster reference — remote or same-site —
// is an edge of the global root graph and is reference-counted per
// (holder-cluster, target-cluster) pair. Transitions of those counts are
// reported through Hooks to the GGD engine (package core): 0→1 and
// re-additions drive lazy log-keeping stamps, 1→0 drives edge-destruction
// messages ("when the proxy for that remote object is collected", §3.4).
//
// Each cluster keeps an entry table: its objects that have (ever) been
// referenced from outside the cluster. Entries are the paper's global
// roots (Fig 1): they serve as local-GC roots until Global Garbage
// Detection removes the whole cluster, at which point the entry table is
// cleared and per-site mark-sweep reclaims the objects.
package heap

import (
	"fmt"
	"slices"
	"sync/atomic"

	"causalgc/internal/ids"
)

// Counters is a site's identity mint: the object and cluster sequence
// counters every heap of the site draws from. The shards of a site
// share one instance, so the identities an n-shard run mints are
// exactly those the 1-shard run would (DESIGN.md §3.4). Atomic, because
// the shards of a volatile site mint concurrently (a durable site runs
// one journaled event at a time, so it mints in journal order).
type Counters struct {
	obj atomic.Uint64
	clu atomic.Uint64
}

// NewCounters returns a zeroed identity mint.
func NewCounters() *Counters { return &Counters{} }

// MintObj draws the next object sequence. Exported because the site
// draws at apply, before it knows which shard's heap materialises the
// object: a create placed on a sibling shard travels there by frame.
func (c *Counters) MintObj() uint64 { return c.obj.Add(1) }

// MintClu draws the next cluster sequence.
func (c *Counters) MintClu() uint64 { return c.clu.Add(1) }

// ObserveObj raises the object counter to at least seq (snapshot
// restore: the image's mints must never be re-drawn).
func (c *Counters) ObserveObj(seq uint64) { observeMax(&c.obj, seq) }

// ObserveClu raises the cluster counter to at least seq.
func (c *Counters) ObserveClu(seq uint64) { observeMax(&c.clu, seq) }

// Snapshot reads both counters.
func (c *Counters) Snapshot() (obj, clu uint64) { return c.obj.Load(), c.clu.Load() }

func observeMax(a *atomic.Uint64, seq uint64) {
	for {
		cur := a.Load()
		if seq <= cur || a.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// Ref names a reference target: the object and the cluster it belongs to.
// Remote references carry the cluster so the holder's site can do edge
// accounting without contacting the target's site.
type Ref struct {
	Obj     ids.ObjectID
	Cluster ids.ClusterID
}

// NilRef is the empty reference (an unset slot).
var NilRef Ref

// Valid reports whether the reference is set.
func (r Ref) Valid() bool { return r.Obj.Valid() }

// String renders "s2/o5@s2/c3" or "nil".
func (r Ref) String() string {
	if !r.Valid() {
		return "nil"
	}
	return r.Obj.String() + "@" + r.Cluster.String()
}

// Hooks receives the global-root-graph edge transitions. The GGD engine
// implements it; tests may use recording fakes.
type Hooks interface {
	// EdgeUp is called on every addition of an inter-cluster reference,
	// including re-additions while the edge already exists (the receiver
	// re-stamps on every receipt; see DESIGN.md interpretation #2). first
	// reports a 0→1 transition of the edge's reference count. intro and
	// introSeq identify the introduction that carried the reference (zero
	// values for locally originated references).
	EdgeUp(holder, target ids.ClusterID, first bool, intro ids.ClusterID, introSeq uint64)
	// EdgeDown is called when an edge's reference count drops to zero:
	// the local collector (or the mutator) destroyed the last reference
	// from holder's cluster to target's cluster.
	EdgeDown(holder, target ids.ClusterID)
}

// NopHooks discards all notifications.
type NopHooks struct{}

// EdgeUp implements Hooks.
func (NopHooks) EdgeUp(_, _ ids.ClusterID, _ bool, _ ids.ClusterID, _ uint64) {}

// EdgeDown implements Hooks.
func (NopHooks) EdgeDown(_, _ ids.ClusterID) {}

var _ Hooks = NopHooks{}

// Object is a vertex of the object graph: an ordered set of reference
// slots. Objects are owned by exactly one cluster and never migrate.
type Object struct {
	id      ids.ObjectID
	cluster ids.ClusterID
	slots   []Ref
	marked  bool // local GC mark bit
}

// ID returns the object identifier.
func (o *Object) ID() ids.ObjectID { return o.id }

// Cluster returns the owning cluster.
func (o *Object) Cluster() ids.ClusterID { return o.cluster }

// Slots returns a copy of the slot array.
func (o *Object) Slots() []Ref {
	out := make([]Ref, len(o.slots))
	copy(out, o.slots)
	return out
}

// cluster is the per-cluster bookkeeping.
type cluster struct {
	id      ids.ClusterID
	objects map[ids.ObjectID]*Object
	// entries are the cluster's global roots: objects that have (ever)
	// been referenced from outside the cluster. Conservative until the
	// cluster is removed by GGD (§2.1: "until proven otherwise").
	entries map[ids.ObjectID]struct{}
	removed bool
}

// edge identifies a global-root-graph edge.
type edge struct {
	from, to ids.ClusterID
}

// Heap is one shard's partition of a site's portion of the distributed
// object graph (the whole portion on a one-shard site).
type Heap struct {
	site     ids.SiteID
	hooks    Hooks
	ctr      *Counters
	track    func(ids.ObjectID, bool)
	objects  map[ids.ObjectID]*Object
	clusters map[ids.ClusterID]*cluster
	edges    map[edge]int
	rootClu  ids.ClusterID // zero on rootless shard heaps
	rootObj  ids.ObjectID
}

// New creates a standalone rooted heap with a private identity mint:
// the whole of a site's portion, including its root cluster and root
// object (the site's local root set, Fig 1). hooks must not be nil.
func New(site ids.SiteID, hooks Hooks) *Heap {
	return NewShard(site, hooks, NewCounters(), true)
}

// NewShard creates one shard's heap, drawing identities from the
// site's shared mint. withRoot=false builds a rootless partition: only
// shard 0 owns the local root set; the other shards hold clusters whose
// roots are entry tables alone.
func NewShard(site ids.SiteID, hooks Hooks, ctr *Counters, withRoot bool) *Heap {
	h := &Heap{
		site:     site,
		hooks:    hooks,
		ctr:      ctr,
		objects:  make(map[ids.ObjectID]*Object),
		clusters: make(map[ids.ClusterID]*cluster),
		edges:    make(map[edge]int),
	}
	if withRoot {
		h.rootClu = ids.ClusterID{Site: site, Seq: h.ctr.MintClu(), Root: true}
		h.addCluster(h.rootClu)
		root := h.allocate(h.rootClu)
		h.rootObj = root.id
	}
	return h
}

// SetObjectTracker registers fn, called with (id, true) when an object
// materialises in this heap and (id, false) when the sweep reclaims
// it. The sharded runtime uses it to maintain the object→shard routing
// table; nil (the default) disables tracking.
func (h *Heap) SetObjectTracker(fn func(ids.ObjectID, bool)) { h.track = fn }

// Site returns the heap's site.
func (h *Heap) Site() ids.SiteID { return h.site }

// RootCluster returns the site's local-root cluster (an actual root).
func (h *Heap) RootCluster() ids.ClusterID { return h.rootClu }

// RootObject returns the designated local root object; its slots model the
// mutator's named references (stacks, globals).
func (h *Heap) RootObject() ids.ObjectID { return h.rootObj }

// RootRef returns a reference to the root object.
func (h *Heap) RootRef() Ref { return Ref{Obj: h.rootObj, Cluster: h.rootClu} }

func (h *Heap) addCluster(id ids.ClusterID) *cluster {
	c := &cluster{
		id:      id,
		objects: make(map[ids.ObjectID]*Object),
		entries: make(map[ids.ObjectID]struct{}),
	}
	h.clusters[id] = c
	return c
}

func (h *Heap) allocate(cl ids.ClusterID) *Object {
	c, ok := h.clusters[cl]
	if !ok {
		c = h.addCluster(cl)
	}
	o := &Object{
		id:      ids.ObjectID{Site: h.site, Seq: h.ctr.MintObj()},
		cluster: cl,
	}
	h.objects[o.id] = o
	c.objects[o.id] = o
	if h.track != nil {
		h.track(o.id, true)
	}
	return o
}

// NewCluster mints a fresh non-root cluster identifier on this site.
func (h *Heap) NewCluster() ids.ClusterID {
	return ids.ClusterID{Site: h.site, Seq: h.ctr.MintClu()}
}

// NewObject allocates an object in the given cluster (minting a new
// cluster when cl is the zero value). The object starts unreferenced;
// callers must attach it (AddRef) before the next collection, or it is
// garbage by definition.
func (h *Heap) NewObject(cl ids.ClusterID) *Object {
	if !cl.Valid() {
		cl = h.NewCluster()
	}
	if cl.Site != h.site {
		panic(fmt.Sprintf("heap %v: NewObject in foreign cluster %v", h.site, cl))
	}
	return h.allocate(cl)
}

// NewObjectAt allocates an object with a pre-minted identity, used when a
// remote site created the object (paper: object 1 creates object 2 on
// another site). The creator mints both IDs so creation needs no
// round-trip.
func (h *Heap) NewObjectAt(id ids.ObjectID, cl ids.ClusterID) (*Object, error) {
	if id.Site != h.site || cl.Site != h.site {
		return nil, fmt.Errorf("heap %v: identity %v/%v: %w", h.site, id, cl, ErrForeignCluster)
	}
	if _, ok := h.objects[id]; ok {
		return nil, fmt.Errorf("heap %v: %v: %w", h.site, id, ErrDuplicateObject)
	}
	c, ok := h.clusters[cl]
	if !ok {
		c = h.addCluster(cl)
	}
	o := &Object{id: id, cluster: cl}
	h.objects[id] = o
	c.objects[id] = o
	if h.track != nil {
		h.track(id, true)
	}
	return o, nil
}

// Object returns the object with the given ID, or nil.
func (h *Heap) Object(id ids.ObjectID) *Object { return h.objects[id] }

// NumObjects returns the number of live (unswept) objects, including the
// root object.
func (h *Heap) NumObjects() int { return len(h.objects) }

// Objects returns the live objects sorted by ID (snapshot for the global
// oracle and the trace tooling).
func (h *Heap) Objects() []*Object {
	out := make([]*Object, 0, len(h.objects))
	for _, o := range h.objects {
		out = append(out, o)
	}
	slices.SortFunc(out, compareObjects)
	return out
}

func compareObjects(a, b *Object) int { return a.id.Compare(b.id) }

// Clusters returns the IDs of all clusters that still hold objects or
// entries, sorted.
func (h *Heap) Clusters() []ids.ClusterID {
	out := make([]ids.ClusterID, 0, len(h.clusters))
	for id := range h.clusters {
		out = append(out, id)
	}
	ids.SortClusters(out)
	return out
}

// ClusterRemoved reports whether GGD has removed the cluster.
func (h *Heap) ClusterRemoved(cl ids.ClusterID) bool {
	c, ok := h.clusters[cl]
	return ok && c.removed
}

// MarkEntry records that obj is referenced from outside its cluster: it
// becomes a global root and a local-GC root until its cluster is removed.
func (h *Heap) MarkEntry(obj ids.ObjectID) error {
	o, ok := h.objects[obj]
	if !ok {
		return fmt.Errorf("heap %v: MarkEntry %v: %w", h.site, obj, ErrNoSuchObject)
	}
	c := h.clusters[o.cluster]
	if c.removed {
		return fmt.Errorf("heap %v: MarkEntry on %v: %w", h.site, o.cluster, ErrClusterRemoved)
	}
	c.entries[obj] = struct{}{}
	return nil
}

// Entries returns the entry objects (global roots) of a cluster, sorted.
func (h *Heap) Entries(cl ids.ClusterID) []ids.ObjectID {
	c, ok := h.clusters[cl]
	if !ok {
		return nil
	}
	out := make([]ids.ObjectID, 0, len(c.entries))
	for id := range c.entries {
		out = append(out, id)
	}
	ids.SortObjects(out)
	return out
}

// AddRef appends ref to holder's slots and performs edge accounting,
// returning the slot index. Inter-cluster additions notify Hooks.EdgeUp.
func (h *Heap) AddRef(holder ids.ObjectID, ref Ref) (int, error) {
	return h.AddRefIntro(holder, ref, ids.NoCluster, 0)
}

// AddRefIntro is AddRef with the introduction identity (the cluster whose
// forwarded reference is being stored, and its forwarding sequence
// number) passed through to Hooks.EdgeUp.
func (h *Heap) AddRefIntro(holder ids.ObjectID, ref Ref, intro ids.ClusterID, introSeq uint64) (int, error) {
	o, ok := h.objects[holder]
	if !ok {
		return 0, fmt.Errorf("heap %v: AddRef holder %v: %w", h.site, holder, ErrNoSuchObject)
	}
	if !ref.Valid() {
		return 0, fmt.Errorf("heap %v: AddRef: %w", h.site, ErrNilRef)
	}
	o.slots = append(o.slots, ref)
	h.refAdded(o, ref, intro, introSeq)
	return len(o.slots) - 1, nil
}

// SetSlot overwrites slot i of holder (growing the slot array as needed),
// dropping the previous reference. ref may be NilRef to clear.
func (h *Heap) SetSlot(holder ids.ObjectID, i int, ref Ref) error {
	o, ok := h.objects[holder]
	if !ok {
		return fmt.Errorf("heap %v: SetSlot holder %v: %w", h.site, holder, ErrNoSuchObject)
	}
	if i < 0 {
		return fmt.Errorf("heap %v: SetSlot index %d: %w", h.site, i, ErrBadSlot)
	}
	for len(o.slots) <= i {
		o.slots = append(o.slots, NilRef)
	}
	old := o.slots[i]
	o.slots[i] = ref
	if old.Valid() {
		h.refDropped(o, old)
	}
	if ref.Valid() {
		h.refAdded(o, ref, ids.NoCluster, 0)
	}
	return nil
}

// ClearSlot drops the reference in slot i of holder.
func (h *Heap) ClearSlot(holder ids.ObjectID, i int) error {
	return h.SetSlot(holder, i, NilRef)
}

// DropRefs drops every slot of holder that references target (mutator
// convenience: "destroy the edge to that object").
func (h *Heap) DropRefs(holder, target ids.ObjectID) error {
	o, ok := h.objects[holder]
	if !ok {
		return fmt.Errorf("heap %v: DropRefs holder %v: %w", h.site, holder, ErrNoSuchObject)
	}
	for i, r := range o.slots {
		if r.Obj == target {
			o.slots[i] = NilRef
			h.refDropped(o, r)
		}
	}
	return nil
}

func (h *Heap) refAdded(o *Object, ref Ref, intro ids.ClusterID, introSeq uint64) {
	if ref.Cluster == o.cluster {
		return
	}
	e := edge{from: o.cluster, to: ref.Cluster}
	n := h.edges[e]
	h.edges[e] = n + 1
	if c := h.clusters[o.cluster]; c != nil && c.removed {
		// Edges of a removed cluster were force-destroyed at removal; do
		// not resurrect them (the objects are about to be swept).
		return
	}
	// A reference into another local cluster makes its target a global
	// root of that cluster.
	if ref.Cluster.Site == h.site {
		if t, ok := h.objects[ref.Obj]; ok {
			if tc := h.clusters[t.cluster]; tc != nil && !tc.removed {
				tc.entries[t.id] = struct{}{}
			}
		}
	}
	h.hooks.EdgeUp(o.cluster, ref.Cluster, n == 0, intro, introSeq)
}

func (h *Heap) refDropped(o *Object, ref Ref) {
	if ref.Cluster == o.cluster {
		return
	}
	e := edge{from: o.cluster, to: ref.Cluster}
	n := h.edges[e]
	if n <= 0 {
		// Removal already zeroed this cluster's edges.
		return
	}
	h.edges[e] = n - 1
	if n-1 == 0 {
		delete(h.edges, e)
	}
	if c := h.clusters[o.cluster]; c != nil && c.removed {
		return
	}
	if n-1 == 0 {
		h.hooks.EdgeDown(o.cluster, ref.Cluster)
	}
}

// RemoveCluster implements the GGD verdict: the cluster's entry table is
// cleared (its global roots are discarded from the root set, §2.2) and its
// remaining out-edges are zeroed without further Hooks notifications — the
// caller (the GGD engine) has already shipped the bundled edge-destruction
// messages. The objects themselves are reclaimed by the next local
// collection.
func (h *Heap) RemoveCluster(cl ids.ClusterID) error {
	c, ok := h.clusters[cl]
	if !ok {
		return fmt.Errorf("heap %v: RemoveCluster %v: %w", h.site, cl, ErrNoSuchCluster)
	}
	if cl == h.rootClu {
		return fmt.Errorf("heap %v: RemoveCluster: %w", h.site, ErrRootCluster)
	}
	if c.removed {
		return nil
	}
	c.removed = true
	c.entries = make(map[ids.ObjectID]struct{})
	for e := range h.edges {
		if e.from == cl {
			delete(h.edges, e)
		}
	}
	return nil
}
