package causalgc

import (
	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/oracle"
	"causalgc/internal/site"
	"causalgc/internal/vclock"
)

// SiteID identifies one site. Numbering starts at 1; zero is "no site".
type SiteID = ids.SiteID

// NoSite is the zero SiteID.
const NoSite = ids.NoSite

// ObjectID identifies a heap object anywhere in the system.
type ObjectID = ids.ObjectID

// ClusterID identifies a vertex of the global root graph: a group of
// objects collected as a unit (at the default granularity, every object
// is its own cluster).
type ClusterID = ids.ClusterID

// Ref names a reference target: the object and the cluster it belongs
// to. Node methods accept and return Refs.
type Ref = heap.Ref

// NilRef is the empty reference.
var NilRef = heap.NilRef

// CollectStats reports one local mark-sweep collection.
type CollectStats = heap.CollectStats

// EngineStats counts GGD engine activity on one node.
type EngineStats = core.Stats

// EngineOptions tune the GGD engine. The engine is always the sound
// production configuration; the one option traces removals.
type EngineOptions struct {
	// RemoveObserver, when non-nil, is called with each removed
	// process's final log and clock just before its removal.
	RemoveObserver func(ClusterID, *Log, uint64)
}

// Log is the two-dimensional dependency-vector log a global root keeps;
// exposed read-only for diagnostics (Node.LogSnapshot, RemoveObserver).
type Log = vclock.Log

// Report is the verdict of a global reachability oracle over a set of
// nodes: live count, undetected garbage, and dangling references (safety
// violations). See Cluster.Check.
type Report = oracle.Report

// Observer receives node lifecycle events: cluster removals decided by
// GGD and local collections. Callbacks run with the node's internal lock
// held — they must be fast and must not call back into the Node.
type Observer = site.Observer

// AckObserver is an optional extension of Observer: an Observer that
// also implements it receives acknowledged-retirement events — frames
// retired exactly by a peer's cumulative FrameAck. Same callback rules
// as Observer.
type AckObserver = site.AckObserver

// FanoutObserver composes observers into one: every lifecycle event is
// forwarded to each non-nil child in order, and AckObserver retirement
// events reach the children that implement that extension. It is the
// adapter WithMonitor uses internally so a monitor's recorder and a
// user observer share the observer slot; use it directly to stack
// several user observers.
func FanoutObserver(obs ...Observer) Observer { return site.Fanout(obs...) }

// FrameStats counts a node's acknowledged-retirement activity: the
// outbox gauge, FrameAck traffic, retired frames and damper
// suppressions. See Node.FrameStats.
type FrameStats = site.FrameStats

// Stream identifies one acknowledged-retirement stream between a pair
// of sites (DESIGN.md §3.2); AckObserver callbacks name the stream a
// frame belonged to.
type Stream = core.Stream

// The retirement streams: retained outbound mutator frames, journaled
// edge-asserts, and edge-destruction bundles (destroyed edges' and
// removed clusters' finalisation bundles alike).
const (
	StreamMut     = core.StreamMut
	StreamAssert  = core.StreamAssert
	StreamDestroy = core.StreamDestroy
)

// Check runs the global reachability oracle over the given nodes: ground
// truth no real site can compute, for tests and demos. All nodes of the
// system must be passed, and the system should be quiescent for a
// meaningful liveness verdict.
func Check(nodes ...*Node) Report {
	rts := make([]oracle.Site, len(nodes))
	for i, n := range nodes {
		rts[i] = n.rt
	}
	return oracle.Check(rts...)
}
