// Package schelvis implements the comparison algorithm of the paper's §4:
// Schelvis's "Incremental Distribution of Timestamp Packets" (OOPSLA'89),
// the only prior comprehensive GGD not based on whole-graph tracing.
//
// Schelvis's algorithm uses eager log-keeping — every change to the
// global root graph immediately triggers control traffic — and determines,
// for each global root, the potential existence of open paths from actual
// roots by repeatedly propagating time-stamp packets down the paths
// affected by a modification. Packets characterise reachability "via only
// one of the global roots adjacent to it" (§4): information travels one
// edge and one path at a time, with none of the vector merging/bundling of
// the paper's algorithm. The result is the distance-vector dynamics the
// paper criticises: on recursive structures with subcycles (doubly-linked
// lists), detaching k elements costs O(k²) messages, against O(k) for the
// causal-dependency algorithm (Experiment E6).
//
// The reproduction models each global root's reachability metric as a
// bounded hop-count from an actual root (timestamp packets carrying
// "potential path" evidence). Every recomputation that changes a vertex's
// metric eagerly sends one packet per outgoing edge. Vertices whose metric
// reaches the horizon (no potential path from any root) are garbage.
package schelvis

import (
	"fmt"

	"causalgc/internal/ids"
	"causalgc/internal/netsim"
)

// DefaultHorizon bounds the reachability metric when the caller does not
// provide one: a vertex whose best known distance-to-root reaches the
// horizon has no potential open path and is garbage. The horizon plays
// the role of the timestamp bound in Schelvis's packets; it must exceed
// the longest simple root path, so harnesses set it to the vertex count
// plus one. The count-to-infinity convergence up to this bound is what
// makes detaching a k-element doubly-linked list cost O(k²) messages.
const DefaultHorizon = 1 << 10

// Packet is the timestamp packet: the sender's current metric, pushed
// eagerly along one edge of the global root graph.
type Packet struct {
	From, To ids.ClusterID
	Metric   int
}

// Kind implements netsim.Payload.
func (Packet) Kind() string { return "schelvis.packet" }

// ApproxSize implements netsim.Payload.
func (Packet) ApproxSize() int { return 32 }

// EdgeMsg is the eager log-keeping control message: the creation or
// destruction of an edge is reported to the target immediately (§2.3
// "an eager log-keeping mechanism attempts to immediately update the log
// maintained for the target object").
type EdgeMsg struct {
	From, To ids.ClusterID
	Up       bool
	Metric   int // sender's metric at creation time
}

// Kind implements netsim.Payload.
func (EdgeMsg) Kind() string { return "schelvis.edge" }

// ApproxSize implements netsim.Payload.
func (EdgeMsg) ApproxSize() int { return 33 }

// vertex is one global root's state.
type vertex struct {
	id ids.ClusterID
	// metric is the best known distance to an actual root (0 for roots).
	metric int
	// preds holds the last metric heard from each predecessor.
	preds map[ids.ClusterID]int
	succs ids.ClusterSet
	dead  bool
}

// Detector runs Schelvis-style detection for the vertices of one site.
type Detector struct {
	site     ids.SiteID
	net      netsim.Network
	horizon  int
	vertices map[ids.ClusterID]*vertex
	onRemove func(ids.ClusterID)
	removed  int
}

// New creates the per-site detector. horizon ≤ 0 selects DefaultHorizon;
// onRemove may be nil.
func New(site ids.SiteID, net netsim.Network, horizon int, onRemove func(ids.ClusterID)) *Detector {
	if horizon <= 0 {
		horizon = DefaultHorizon
	}
	d := &Detector{
		site:     site,
		net:      net,
		horizon:  horizon,
		vertices: make(map[ids.ClusterID]*vertex),
		onRemove: onRemove,
	}
	net.Register(site, d.handle)
	return d
}

// Removed returns the number of vertices detected as garbage.
func (d *Detector) Removed() int { return d.removed }

// AddVertex registers a local vertex (metric 0 for actual roots).
func (d *Detector) AddVertex(id ids.ClusterID) {
	if id.Site != d.site {
		panic(fmt.Sprintf("schelvis %v: foreign vertex %v", d.site, id))
	}
	if _, ok := d.vertices[id]; ok {
		return
	}
	m := d.horizon
	if id.IsRoot() {
		m = 0
	}
	d.vertices[id] = &vertex{
		id:     id,
		metric: m,
		preds:  make(map[ids.ClusterID]int),
		succs:  ids.NewClusterSet(),
	}
}

// CreateEdge records a new edge from local vertex u to vertex v, eagerly
// notifying v (the §2.3 eager log-keeping message).
func (d *Detector) CreateEdge(u, v ids.ClusterID) {
	vu, ok := d.vertices[u]
	if !ok || vu.dead {
		return
	}
	vu.succs.Add(v)
	d.send(EdgeMsg{From: u, To: v, Up: true, Metric: vu.metric})
}

// DestroyEdge records the destruction of the edge u→v.
func (d *Detector) DestroyEdge(u, v ids.ClusterID) {
	vu, ok := d.vertices[u]
	if !ok {
		return
	}
	vu.succs.Remove(v)
	d.send(EdgeMsg{From: u, To: v, Up: false})
}

func (d *Detector) send(p netsim.Payload) {
	var to ids.SiteID
	switch m := p.(type) {
	case EdgeMsg:
		to = m.To.Site
	case Packet:
		to = m.To.Site
	}
	d.net.Send(d.site, to, p)
}

// handle processes incoming packets and edge messages.
func (d *Detector) handle(_ ids.SiteID, p netsim.Payload) {
	switch m := p.(type) {
	case EdgeMsg:
		v, ok := d.vertices[m.To]
		if !ok || v.dead {
			return
		}
		if m.Up {
			v.preds[m.From] = m.Metric
		} else {
			delete(v.preds, m.From)
		}
		d.recompute(v)
	case Packet:
		v, ok := d.vertices[m.To]
		if !ok || v.dead {
			return
		}
		if _, known := v.preds[m.From]; !known {
			// Stale packet from a dropped edge.
			return
		}
		v.preds[m.From] = m.Metric
		d.recompute(v)
	}
}

// recompute re-derives the vertex's metric from its predecessors and
// eagerly pushes packets down every outgoing edge when it changed: the
// per-path, per-edge propagation that costs O(k²) on lists.
func (d *Detector) recompute(v *vertex) {
	if v.id.IsRoot() {
		return
	}
	best := d.horizon
	for _, m := range v.preds {
		if m+1 < best {
			best = m + 1
		}
	}
	if best == v.metric {
		return
	}
	v.metric = best
	if best >= d.horizon {
		d.remove(v)
		return
	}
	for _, s := range v.succs.Sorted() {
		d.send(Packet{From: v.id, To: s, Metric: v.metric})
	}
}

// remove collects a vertex: its outgoing edges are destroyed eagerly.
func (d *Detector) remove(v *vertex) {
	v.dead = true
	d.removed++
	for _, s := range v.succs.Sorted() {
		d.send(EdgeMsg{From: v.id, To: s, Up: false})
	}
	v.succs = ids.NewClusterSet()
	if d.onRemove != nil {
		d.onRemove(v.id)
	}
}

// Kick re-announces every local vertex's metric along its out-edges
// (used to start detection after building a structure quiescently).
func (d *Detector) Kick() {
	for _, v := range d.vertices {
		if v.dead {
			continue
		}
		for _, s := range v.succs.Sorted() {
			d.send(Packet{From: v.id, To: s, Metric: v.metric})
		}
	}
}
