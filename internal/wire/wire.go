package wire

import (
	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
)

// Message kinds, used for statistics. The paper's §4 comparison counts
// messages by purpose, so kinds distinguish mutator traffic from GGD
// control traffic.
const (
	KindCreate    = "mut.create"
	KindRef       = "mut.ref"
	KindDestroy   = "ggd.destroy"
	KindPropagate = "ggd.prop"
	KindAssert    = "ggd.assert"
	KindFrameAck  = "ggd.frameack"
	// Deprecated: no payload has this kind (a retained row leaves only
	// on an ack, so no floor is ever advised); kept only while the
	// frozen benchmark names it.
	KindAdvance  = "ggd.advance"
	KindEnvelope = "mut.envelope"
)

// Create asks the destination site to materialise a new object referenced
// by the creator: the paper's "root object 1 creates an object 2" (§3.1).
// The creator mints the identities, so no reply is needed.
type Create struct {
	// Creator is the holding cluster (source of the new edge).
	Creator ids.ClusterID
	// Stamp is the creator's clock at the send: the only piggybacked
	// log-keeping datum, carried by the creation message itself.
	Stamp uint64
	// Obj and Cluster are the minted identities of the new object.
	Obj     ids.ObjectID
	Cluster ids.ClusterID
	// Seq is the frame's sequence in the creator site's mutator
	// retirement stream to the destination (DESIGN.md §3.2); zero when
	// the sender retains no outbox (volatile sites).
	Seq uint64
}

// Kind implements netsim.Payload.
func (Create) Kind() string { return KindCreate }

// ApplicationTraffic implements netsim.Application: creation is reliable
// mutator RPC.
func (Create) ApplicationTraffic() bool { return true }

// ApproxSize implements netsim.Payload.
func (Create) ApproxSize() int { return 56 }

// RefTransfer carries a copy of a reference from a holder object to a
// remote object: the mutator message of Fig 7 (light grey arrows). Target
// may denote the sender itself, a local object, or a third-party object on
// yet another site — the receiver cannot and need not tell the difference.
type RefTransfer struct {
	// FromCluster is the sending cluster: the introducer of the edge the
	// receiver is about to create.
	FromCluster ids.ClusterID
	// IntroSeq is the sender's forwarding sequence number for this copy
	// (the paper's DV_i[k][j] increment), echoed by the receiver's
	// edge-assert to resolve the introduction hint.
	IntroSeq uint64
	// ToObj is the receiving object; its site is the destination.
	ToObj ids.ObjectID
	// ToCluster is ToObj's cluster, as known to the sender. It lets the
	// destination prove a dead introduction: if the cluster is known
	// there (registered or tombstoned) but the object is gone, the
	// holder was collected and the edge can never form — the receiving
	// site then expires the introduction instead of parking the frame
	// forever (core.Engine.ResolveIntroduction).
	ToCluster ids.ClusterID
	// Target is the reference being copied.
	Target heap.Ref
	// Seq is the frame's sequence in the sender site's mutator
	// retirement stream to the destination (DESIGN.md §3.2); zero when
	// the sender retains no outbox or the transfer carries no dedup
	// identity (IntroSeq zero).
	Seq uint64
}

// Kind implements netsim.Payload.
func (RefTransfer) Kind() string { return KindRef }

// ApplicationTraffic implements netsim.Application: reference exchange is
// reliable mutator RPC.
func (RefTransfer) ApplicationTraffic() bool { return true }

// ApproxSize implements netsim.Payload.
func (RefTransfer) ApproxSize() int { return 80 }

// Destroy is the edge-destruction control message (§3.4): sent when the
// last reference from From's cluster to To's cluster is destroyed, and by
// the finalisation of detected garbage (§3.2), in one retirement stream.
// It carries the row kept by
// the sender on behalf of To: authoritative stamps with the sender's
// column replaced by Ē(clock), the bundled third-party edge-creation
// hints, and the processed-introduction record.
type Destroy struct {
	From ids.ClusterID
	To   ids.ClusterID
	M    core.DestroyMsg
	// Seq is the frame's sequence in the sender site's destroy
	// retirement stream to the destination (DESIGN.md §3.2); zero for
	// untracked frames.
	Seq uint64
}

// Kind implements netsim.Payload.
func (Destroy) Kind() string { return KindDestroy }

// ApproxSize implements netsim.Payload.
func (d Destroy) ApproxSize() int {
	return 41 + 24*(len(d.M.Auth)+len(d.M.Hints)+len(d.M.Processed))
}

// Assert is the edge-assert control message: the deferred, idempotent
// acknowledgement a cluster sends when it first acquires a reference to a
// remote cluster, carrying its authoritative live stamp and resolving the
// introduction that created the edge (see package core).
type Assert struct {
	From ids.ClusterID
	To   ids.ClusterID
	M    core.AssertMsg
	// Seq is the frame's sequence in the sender site's assert
	// retirement stream to the destination (DESIGN.md §3.2).
	Seq uint64
}

// Kind implements netsim.Payload.
func (Assert) Kind() string { return KindAssert }

// ApproxSize implements netsim.Payload.
func (Assert) ApproxSize() int { return 64 }

// FrameAck is the cumulative acknowledgement of the acknowledged-
// retirement protocol (DESIGN.md §3.2): the sending site has reached a
// final, replayable disposition for every frame of the named stream
// from the destination site with sequence ≤ Seq. The destination
// retires the covered frames it retained exactly — mutator frames,
// edge-asserts, edge-destruction bundles — instead of re-shipping them
// every refresh round. Acks are
// GGD-plane traffic: idempotent (watermarks merge by max) and
// loss-tolerant (a re-delivered frame re-sends the current watermark).
type FrameAck struct {
	// Stream names the retirement stream the watermark covers.
	Stream core.Stream
	// Seq is the cumulative watermark: every sequence ≤ Seq is settled.
	Seq uint64
	// Epoch counts the sender's recoveries. A change tells the receiver
	// the peer restarted and re-arms its re-send dampers for that peer.
	Epoch uint64
}

// Kind implements netsim.Payload.
func (FrameAck) Kind() string { return KindFrameAck }

// ApproxSize implements netsim.Payload.
func (FrameAck) ApproxSize() int { return 25 }

// Envelope is the wire-level coalescing frame of the batched mutator
// API (DESIGN.md §3.3): every payload a batch commit (or the dispatch
// of a received envelope) produced for one destination site, carried in
// one transport send — one length-prefixed socket write on the TCP
// backend instead of one per frame. The receiver dispatches the inner
// frames in order, journals the whole envelope as a single delivery
// record, and settles/acknowledges once per envelope rather than once
// per frame. Inner frames keep their own retirement-stream sequences,
// so re-sends (always bare frames) fill the same receiver-side gaps.
//
// To netsim's per-kind statistics and per-kind drop faults an envelope
// is one "mut.envelope" payload: inner kinds are not unwrapped
// (counting both would double-book the traffic). The targeted per-kind
// fault lanes drive singleton runtime entry points, which never
// envelope, so their coverage is unaffected; kind-level byte
// measurements of batched runs see envelope totals instead of
// per-inner-kind splits.
type Envelope struct {
	// Frames are the coalesced payloads, in send order. An Envelope
	// never nests another Envelope.
	Frames []netsim.Payload
}

// Kind implements netsim.Payload.
func (Envelope) Kind() string { return KindEnvelope }

// ApproxSize implements netsim.Payload: framing overhead plus the inner
// payload sizes.
func (e Envelope) ApproxSize() int {
	n := 8
	for _, f := range e.Frames {
		n += f.ApproxSize()
	}
	return n
}

// ApplicationTraffic implements netsim.Application dynamically: an
// envelope rides the reliable mutator channel exactly when it carries
// at least one mutator frame (batch commits); control-only envelopes
// (a receiver's coalesced ack/assert responses) stay fault-eligible,
// like the bare frames they replace.
func (e Envelope) ApplicationTraffic() bool {
	for _, f := range e.Frames {
		if !netsim.FaultEligible(f) {
			return true
		}
	}
	return false
}

// Propagate circulates increasingly accurate approximations of dependency
// vectors along the out-edges of the global root graph (§3.3, step 3 of
// the algorithm): the sender's first-hand incoming-edge vector and clock,
// the confirmed first-hand vectors of its known ancestry, and its
// on-behalf entries. Everything is edge-keyed, so receivers merge per
// edge and every member of a garbage cycle converges on the same causal
// picture in O(cycle) messages.
type Propagate struct {
	From ids.ClusterID
	To   ids.ClusterID
	M    core.Propagation
}

// Kind implements netsim.Payload.
func (Propagate) Kind() string { return KindPropagate }

// ApproxSize implements netsim.Payload.
func (p Propagate) ApproxSize() int {
	n := 40 + 24*len(p.M.Auth) + 16*len(p.M.HintCols)
	for _, r := range p.M.Rows {
		n += 16 + 24*len(r.Auth) + 16*len(r.HintCols)
	}
	for _, r := range p.M.OBs {
		n += 16 + 24*(len(r.Auth)+len(r.Hints))
	}
	return n
}

// Interface checks.
var (
	_ netsim.Payload     = Create{}
	_ netsim.Payload     = RefTransfer{}
	_ netsim.Payload     = Destroy{}
	_ netsim.Payload     = Propagate{}
	_ netsim.Payload     = Assert{}
	_ netsim.Payload     = FrameAck{}
	_ netsim.Payload     = Envelope{}
	_ netsim.Application = Create{}
	_ netsim.Application = RefTransfer{}
	_ netsim.Application = Envelope{}
)
