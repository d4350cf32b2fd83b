package site

import (
	"fmt"
	"sync"

	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/wire"
)

// shard is one lock stripe of a Site: a heap partition, a GGD engine
// over the clusters the site routes to it, and the delivery-side state
// of those clusters, all under one mutex. The site identity, the
// identity mint, the retirement-stream table and the journal belong to
// the Site and are reached through the back-pointer.
type shard struct {
	mu sync.Mutex
	// site is the owning composition; index is this shard's position in
	// site.shards. Shard 0 owns the site's root cluster.
	site  *Site
	index int

	heap   *heap.Heap
	engine *core.Engine

	// removals counts GGD removals since the last collection.
	removals int

	// retained keeps every tracked frame this shard sent until the
	// receiver's cumulative FrameAck retires it, one ledger per stream
	// (reached through ledger); the mut ledger is the outbox, filled
	// only on a durable site. Crash recovery and refresh rounds re-send
	// them. A frame toward a peer that never answers stays: dropping it
	// would lose a Create or RefTransfer (safety) or an assert or Ē
	// (comprehensiveness).
	retained [3]ledger
	// counts are the engine counters the ledgers keep: re-sends, held
	// re-sends and ack retirements of the assert and destroy streams
	// (Site.EngineStats adds them to the engine's own).
	counts core.Stats

	// coalescing, when set, buffers outbound frames instead of sending
	// them: open during every commit and during the dispatch of a
	// received envelope, flushed as one wire.Envelope per peer
	// (DESIGN.md §3.3). The buffer is reused from window to window, so a
	// steady-state window allocates nothing until it builds an envelope.
	coalescing bool
	coalesce   []outFrame
	// handoff holds the own-site frames emitted during the current lock
	// hold, in emit order. Whoever releases r.mu takes them and delivers
	// them with no lock held (Site.unlock, handle): it is empty whenever
	// the mutex is free.
	handoff []netsim.Payload

	// closed freezes the shard: deliveries are dropped (tolerated loss)
	// so introspection keeps answering from an unchanging state.
	closed bool
}

// newShard allocates shard i of s without its heap and engine: the
// caller builds those fresh (initFresh) or from an image (restore).
func newShard(s *Site, i int) *shard {
	return &shard{site: s, index: i}
}

// ledger returns the ledger of tracked stream s.
func (r *shard) ledger(s core.Stream) *ledger { return &r.retained[s-1] }

// engineOptions are the site's engine options with this shard's routing
// rule as the locality predicate.
func (r *shard) engineOptions() core.Options {
	o := r.site.opts.Engine
	o.Owns = r.owns
	return o
}

// initFresh builds an empty heap partition (rooted on shard 0 only) and
// its engine.
func (r *shard) initFresh() {
	s := r.site
	r.engine = core.New(s.id, (*sender)(r), r.onRemove, r.engineOptions())
	r.heap = heap.NewShard(s.id, (*hooks)(r), s.ctr, r.index == 0)
	if r.index == 0 {
		r.engine.Register(r.heap.RootCluster())
	}
}

// owns reports whether this shard routes cl: a same-site cluster the
// site's routing rule assigns here.
func (r *shard) owns(cl ids.ClusterID) bool {
	return cl.Site == r.site.id && r.site.clusterShardIdx(cl) == r.index
}

// --- heap.Hooks and core plumbing ---------------------------------------

// hooks adapts shard to heap.Hooks.
type hooks shard

func (h *hooks) EdgeUp(holder, target ids.ClusterID, first bool, intro ids.ClusterID, introSeq uint64) {
	(*shard)(h).engine.EdgeUp(holder, target, first, intro, introSeq)
}

func (h *hooks) EdgeDown(holder, target ids.ClusterID) {
	(*shard)(h).engine.EdgeDown(holder, target)
}

var _ heap.Hooks = (*hooks)(nil)

// sender adapts shard to core.Sender: it draws each tracked frame's
// retirement-stream sequence (per destination site and stream), stamps
// it onto the wire frame, and retains the frame it emits until the
// receiver acknowledges it, so receivers can acknowledge cumulatively
// and the shard can re-send. The engine passes sequence 0 and ignores
// the result (core.Sender).
//
// The engine only runs inside shard methods that hold r.mu, so every
// callback below executes under the lock by construction; the
// interface fixes the method names, so the *Locked suffix cannot carry
// that fact and the calls are annotated as audited lockcheck
// exceptions instead.
type sender shard

func (s *sender) SendDestroy(from, to ids.ClusterID, m core.DestroyMsg, _ uint64) uint64 {
	r := (*shard)(s)
	f := wire.Destroy{From: from, To: to, M: m, Seq: r.nextSeqLocked(to.Site, core.StreamDestroy)} //causalgc:allow-locked-call engine callbacks run under r.mu
	r.sendRetainedLocked(to.Site, core.StreamDestroy, f.Seq, f)                                    //causalgc:allow-locked-call engine callbacks run under r.mu
	return f.Seq
}

func (s *sender) SendAssert(from, to ids.ClusterID, m core.AssertMsg, _ uint64) uint64 {
	r := (*shard)(s)
	f := wire.Assert{From: from, To: to, M: m, Seq: r.nextSeqLocked(to.Site, core.StreamAssert)} //causalgc:allow-locked-call engine callbacks run under r.mu
	r.sendRetainedLocked(to.Site, core.StreamAssert, f.Seq, f)                                   //causalgc:allow-locked-call engine callbacks run under r.mu
	return f.Seq
}

func (s *sender) SendPropagate(from, to ids.ClusterID, m core.Propagation) {
	(*shard)(s).emitLocked(to.Site, wire.Propagate{From: from, To: to, M: m}) //causalgc:allow-locked-call engine callbacks run under r.mu
}

func (s *sender) SettleFrame(peer ids.SiteID, stream core.Stream, seq uint64) {
	(*shard)(s).markRecvLocked(peer, stream, seq) //causalgc:allow-locked-call engine callbacks run under r.mu
}

var _ core.Sender = (*sender)(nil)

// onRemove is the engine's removal callback: discard the cluster's global
// roots from the local root set (§2.2) and schedule reclamation.
func (r *shard) onRemove(cl ids.ClusterID) {
	// Errors are impossible here by construction: the engine only removes
	// clusters it registered, which exist in the heap.
	_ = r.heap.RemoveCluster(cl)
	r.removals++
	if obs := r.site.opts.Observer; obs != nil {
		obs.ClusterRemoved(r.site.id, cl)
	}
}

// collectLocked runs one local collection and notifies the observer.
func (r *shard) collectLocked() heap.CollectStats {
	stats := r.heap.Collect()
	if obs := r.site.opts.Observer; obs != nil {
		obs.Collected(r.site.id, stats)
	}
	return stats
}

// --- Delivery ------------------------------------------------------------

// handle delivers one frame routed to this shard, from the network or
// from a sibling, and returns the own-site frames the delivery emitted
// for the caller to deliver (Site.cascade): handle never delivers them
// itself, so a cross-shard cascade does not nest. flush is set on the
// last shard a routed payload reaches: that dispatch acknowledges what
// every shard settled for it (Site.route).
func (r *shard) handle(from ids.SiteID, p netsim.Payload, flush bool) (emitted []netsim.Payload) {
	r.site.lockEvent()
	defer r.site.unlockEvent()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	if r.journaling() {
		if err := r.appendLocked(&wire.WALRecord{Deliver: &wire.DeliverRecord{From: from, Payload: p}}); err != nil {
			// An unjournalable delivery must not take effect: acting on
			// it would desynchronise the replayable history from the
			// messages this site sends. Dropping is safe — the protocol
			// tolerates loss (§5) — and counted, not silent.
			r.site.st.deliveryRefused()
			return nil
		}
	}
	r.dispatchLocked(from, p, flush)
	emitted, r.handoff = r.handoff, nil
	return emitted
}

// dispatchLocked applies one delivery, settles the engine, and — when
// flush is set — sends the acknowledgements the site owes. A received
// wire.Envelope is applied frame by frame but settled and acknowledged
// once, and the responses it provokes (FrameAcks, asserts, cascade
// traffic) are themselves coalesced into one envelope per peer. Caller
// holds r.mu.
func (r *shard) dispatchLocked(from ids.SiteID, p netsim.Payload, flush bool) {
	opened := false
	if _, ok := p.(wire.Envelope); ok {
		opened = r.beginCoalesceLocked()
	}
	r.applyFrameLocked(from, p)
	r.settleLocked()
	if flush {
		r.flushAcksLocked()
	}
	if opened {
		r.flushCoalesceLocked()
	}
}

// applyFrameLocked applies one wire frame (an envelope's inner frames
// recursively, in order). A FrameAck never reaches it live — route
// hands acks to applyAck — and one replayed from a journal written
// before acks stopped being journaled applies as nothing: a lost ack.
// Caller holds r.mu.
func (r *shard) applyFrameLocked(from ids.SiteID, p netsim.Payload) {
	switch m := p.(type) {
	case wire.Create:
		// A tracked mutator frame applies iff its stream sequence is
		// recorded now — not a duplicate, not one the tracker's bound
		// refused (that one applies when re-sent) — and then every
		// disposition (applied, zombie- or foreign-dropped) is final.
		if r.markRecvLocked(from, core.StreamMut, m.Seq) {
			r.handleCreate(m)
		}
	case wire.RefTransfer:
		if r.markRecvLocked(from, core.StreamMut, m.Seq) {
			r.handleRefTransfer(m)
		}
	case wire.Destroy:
		r.engine.HandleDestroyFrame(m.To, m.From, m.M, m.Seq, false)
	case wire.Propagate:
		r.engine.HandlePropagate(m.To, m.From, m.M)
	case wire.Assert:
		r.engine.HandleAssertFrame(m.To, m.From, m.M, m.Seq)
	case wire.Envelope:
		for _, f := range m.Frames {
			r.applyFrameLocked(from, f)
		}
	}
}

// journaling reports whether events must be written ahead: on a durable
// site, except during replay (the records are already durable). Callers
// check it before building a record, so a volatile site allocates none.
// Caller holds r.mu.
func (r *shard) journaling() bool {
	return r.site.journal != nil && !r.site.replaying
}

// appendLocked journals one record, tagged with this shard and the
// site's stripe width, write-ahead: before the recorded event mutates
// state or sends messages, which is what guarantees no frame escapes a
// site before the event that caused it can be replayed. Caller holds
// r.mu and has checked journaling.
func (r *shard) appendLocked(rec *wire.WALRecord) error {
	rec.Shard, rec.Width = r.index, r.site.n
	return r.site.journal.Append(rec)
}

// journalCycleLocked durably records this shard's cycle marker
// (wire.OpCollect or wire.OpRefresh) right before its part of the
// cycle runs: the only Op records a site writes — a mutator commit is
// a Batch record (commitLocked). Caller holds r.mu.
func (r *shard) journalCycleLocked(kind wire.OpKind) error {
	if !r.journaling() {
		return nil
	}
	if err := r.appendLocked(&wire.WALRecord{Op: &wire.OpRecord{Kind: kind}}); err != nil {
		return fmt.Errorf("site %v: journal %v: %w", r.site.id, kind, err)
	}
	return nil
}

// mutatorSeqLocked draws the next mutator-stream sequence for a frame
// bound to target, or zero for volatile sites (no journal → no outbox →
// nothing to acknowledge).
func (r *shard) mutatorSeqLocked(target ids.SiteID) uint64 {
	if r.site.journal == nil {
		return 0
	}
	return r.nextSeqLocked(target, core.StreamMut)
}

// sendRetainedLocked emits a frame of stream s and, when it carries a
// sequence, retains it until the receiver acknowledges it. Caller holds
// r.mu.
func (r *shard) sendRetainedLocked(to ids.SiteID, s core.Stream, seq uint64, f netsim.Payload) {
	r.emitLocked(to, f)
	if seq != 0 {
		r.ledger(s).Put(to, seq, f)
	}
}

func (r *shard) handleCreate(m wire.Create) {
	if id := r.site.id; m.Cluster.Site != id || m.Obj.Site != id {
		// Frames are input from outside the program: a creation naming
		// another site's cluster or object is dropped and counted.
		// Register panics on a foreign cluster — a local caller's bug —
		// and this delivery is already journaled, so letting it through
		// would crash every recovery as well.
		r.engine.NoteStale()
		return
	}
	if r.engine.Removed(m.Cluster) {
		// A duplicate or recovery-re-sent creation of a cluster GGD has
		// already removed: applying it would resurrect a zombie object —
		// the swept cluster shell is gone, so the heap would rebuild a
		// live-looking cluster and pin the object as an entry root
		// forever, while the tombstoned engine process can never issue a
		// second verdict. Dropping is the idempotent outcome: the first
		// creation was fully processed and reclaimed.
		return
	}
	r.engine.HandleCreate(m.Cluster, m.Creator, m.Stamp)
	r.materialise(m.Obj, m.Cluster)
}

// materialise creates the object a mutator frame names unless it exists
// (a duplicate creation, or one whose holder an early transfer built: the
// idempotent drop). Referenced from outside this heap partition from
// birth, it is a global root. Caller holds r.mu; both identities are
// this site's.
func (r *shard) materialise(obj ids.ObjectID, cl ids.ClusterID) {
	if o, err := r.heap.NewObjectAt(obj, cl); err == nil {
		_ = r.heap.MarkEntry(o.ID())
	}
}

func (r *shard) handleRefTransfer(m wire.RefTransfer) {
	if r.heap.Object(m.ToObj) == nil {
		if id := r.site.id; m.ToCluster.Site != id || m.ToObj.Site != id {
			// No holder, and none this site could create (a frame with no
			// ToCluster fails the check too): dropped and counted.
			r.engine.NoteStale()
			return
		}
		if r.engine.Registered(m.ToCluster) || r.engine.Removed(m.ToCluster) {
			// The holder's cluster is known here but the object is gone:
			// an object can only be named after its creation was
			// processed (which registers the cluster), so the holder was
			// collected and this introduction can never form its edge.
			// Expire it at the hint's owner.
			r.engine.ResolveIntroduction(m.ToCluster, m.Target.Cluster, m.FromCluster, m.IntroSeq)
			return
		}
		// The holder's creation message has not arrived yet (different
		// sender): an object exists from its first mention. The edge
		// below is stamped on the cluster's unborn process; the late
		// creation finds the object and births it (DESIGN.md §3.2).
		r.materialise(m.ToObj, m.ToCluster)
	}
	// AddRefIntro triggers EdgeUp: the receiver stamps the new edge in
	// its own clock space — the authoritative lazy log-keeping record
	// (§3.4) — and sends the edge-assert resolving the introduction.
	_, _ = r.heap.AddRefIntro(m.ToObj, m.Target, m.FromCluster, m.IntroSeq)
}

// settleLocked drives removal cascades to completion: GGD removals clear
// entry tables, the following collection destroys the last proxies, whose
// destruction messages may remove further local clusters, and so on.
func (r *shard) settleLocked() {
	r.engine.Drain()
	if !r.site.opts.AutoCollect {
		return
	}
	for r.removals > 0 {
		r.removals = 0
		r.collectLocked()
		r.engine.Drain()
	}
}

// --- Commit sequence: the apply stage ------------------------------------

// The commit sequence itself — stage, journal, apply, once per group of
// n >= 1 ops — is commitLocked (batch.go); below is the apply of one op.

// applyOpLocked applies one resolved mutator operation: validation,
// then the draws (identities, placement, stream sequences: a failed op
// draws nothing), mutation, sends (through emitLocked, so the commit's
// window coalesces them) and the settle cascade — everything except
// locking and journaling, which commitLocked owns. pin forces fresh
// clusters onto the executing shard (multi-op groups). For OpNewCluster
// the returned Ref carries only the minted cluster. Caller holds r.mu.
func (r *shard) applyOpLocked(op wire.OpRecord, pin bool) (heap.Ref, error) {
	s := r.site
	switch op.Kind {
	case wire.OpNewLocal, wire.OpNewLocalIn:
		return r.applyCreateLocked(op, pin)
	case wire.OpNewCluster:
		// Bare clusters pin to the executing shard, which NewCluster
		// chose by the placement cursor: advancing it here rotates the
		// next one.
		s.rr.Add(1)
		cl := ids.ClusterID{Site: s.id, Seq: s.ctr.MintClu()}
		s.setClusterShard(cl, r.index)
		r.engine.Register(cl)
		return heap.Ref{Cluster: cl}, nil
	case wire.OpNewRemote:
		return r.applyNewRemoteLocked(op)
	case wire.OpSendRef:
		return heap.NilRef, r.applySendRefLocked(op.Holder, op.To, op.Target)
	case wire.OpAddRef:
		_, err := r.heap.AddRef(op.Holder, op.Target)
		r.settleLocked()
		return heap.NilRef, err
	case wire.OpDropRefs:
		err := r.heap.DropRefs(op.Holder, op.Target.Obj)
		r.settleLocked()
		return heap.NilRef, err
	case wire.OpClearSlot:
		err := r.heap.ClearSlot(op.Holder, op.Slot)
		r.settleLocked()
		return heap.NilRef, err
	}
	return heap.NilRef, fmt.Errorf("site %v: apply %v: unknown op", s.id, op.Kind)
}

// applyCreateLocked is the shared body of NewLocal and NewLocalIn: mint
// the object — in a fresh cluster placed by the placement policy for
// NewLocal, in the existing op.Clu for NewLocalIn — materialise it on
// the shard its cluster routes to and reference it from op.Holder.
func (r *shard) applyCreateLocked(op wire.OpRecord, pin bool) (heap.Ref, error) {
	s := r.site
	if op.Kind == wire.OpNewLocalIn && op.Clu.Site != s.id {
		return heap.NilRef, fmt.Errorf("site %v: NewLocalIn %v: %w", s.id, op.Clu, heap.ErrForeignCluster)
	}
	ho := r.heap.Object(op.Holder)
	if ho == nil {
		return heap.NilRef, fmt.Errorf("site %v: %v holder %v: %w", s.id, op.Kind, op.Holder, heap.ErrNoSuchObject)
	}
	cl := op.Clu
	var idx int
	if op.Kind == wire.OpNewLocal {
		cl = ids.ClusterID{Site: s.id, Seq: s.ctr.MintClu()}
		idx = s.placeCluster(cl, ho.Cluster(), r.index, pin)
	} else {
		idx = s.clusterShardIdx(cl)
	}
	ref := heap.Ref{Obj: ids.ObjectID{Site: s.id, Seq: s.ctr.MintObj()}, Cluster: cl}
	if idx != r.index {
		// The cluster lives on a sibling shard: create the object there
		// through the self-as-peer handoff path.
		return r.createRemoteLocked(op.Holder, s.id, ref)
	}
	r.engine.Register(cl)
	if _, err := r.heap.NewObjectAt(ref.Obj, cl); err != nil {
		return heap.NilRef, err
	}
	if _, err := r.heap.AddRef(op.Holder, ref); err != nil {
		return heap.NilRef, err
	}
	r.settleLocked()
	return ref, nil
}

func (r *shard) applyNewRemoteLocked(op wire.OpRecord) (heap.Ref, error) {
	id := r.site.id
	if r.heap.Object(op.Holder) == nil {
		return heap.NilRef, fmt.Errorf("site %v: NewRemote holder %v: %w", id, op.Holder, heap.ErrNoSuchObject)
	}
	if op.Site == id {
		return heap.NilRef, fmt.Errorf("site %v: NewRemote: %w", id, ErrRemoteSelf)
	}
	// The on-behalf mint: the target site's identity, unique by the
	// creator's site in the high half.
	st := r.site.st
	st.mu.Lock()
	st.mint++
	seq := uint64(id)<<32 | st.mint
	st.mu.Unlock()
	ref := heap.Ref{
		Obj:     ids.ObjectID{Site: op.Site, Seq: seq},
		Cluster: ids.ClusterID{Site: op.Site, Seq: seq},
	}
	return r.createRemoteLocked(op.Holder, op.Site, ref)
}

// createRemoteLocked creates the freshly minted object ref outside this
// heap partition, referenced from holder: on another site (the paper's
// "a root object 1 creates an object 2", §3.1), or on a sibling shard,
// where target is the own site and the creation frame is handed to
// the sibling instead of the network — every invariant
// (journal-before-send, outbox retention, FrameAck-to-self retirement,
// zombie-drop at the owner) comes along for free. Caller holds r.mu.
func (r *shard) createRemoteLocked(holder ids.ObjectID, target ids.SiteID, ref heap.Ref) (heap.Ref, error) {
	ho := r.heap.Object(holder)
	// Order matters: AddRefIntro fires EdgeUp, which bumps the creator's
	// clock for the creation event; the stamp shipped with the message is
	// that clock, so the new object's own row records its creator
	// correctly. ids.CreationSeq marks the creation (no edge-assert: the
	// creation message is the assert).
	if _, err := r.heap.AddRefIntro(holder, ref, ids.NoCluster, ids.CreationSeq); err != nil {
		return heap.NilRef, err
	}
	create := wire.Create{
		Creator: ho.Cluster(),
		Stamp:   r.engine.RemoteCreationStamp(ho.Cluster()),
		Obj:     ref.Obj,
		Cluster: ref.Cluster,
		Seq:     r.mutatorSeqLocked(target),
	}
	r.sendRetainedLocked(target, core.StreamMut, create.Seq, create)
	r.settleLocked()
	return ref, nil
}

func (r *shard) applySendRefLocked(fromObj ids.ObjectID, to heap.Ref, target heap.Ref) error {
	id := r.site.id
	fo := r.heap.Object(fromObj)
	if fo == nil {
		return fmt.Errorf("site %v: SendRef from %v: %w", id, fromObj, heap.ErrNoSuchObject)
	}
	if !r.holds(fo, target) {
		return fmt.Errorf("site %v: SendRef: %v of %v: %w", id, target, fromObj, ErrNotHolder)
	}
	if to.Obj.Site == id && r.owns(to.Cluster) {
		// Destination owned by this heap partition: immediate copy.
		if r.heap.Object(to.Obj) == nil {
			return fmt.Errorf("site %v: SendRef to %v: %w", id, to.Obj, heap.ErrNoSuchObject)
		}
		seq := r.engine.SentRef(fo.Cluster(), target.Cluster, to.Cluster)
		_, err := r.heap.AddRefIntro(to.Obj, target, fo.Cluster(), seq)
		r.settleLocked()
		return err
	}
	// Once a reference to a local object crosses the partition boundary
	// (to another site, or to a sibling shard), the object becomes a
	// global root (§2.1): local GC must treat it as a root until GGD
	// removes its cluster. Targets this shard does not own were marked
	// by whichever shard first exported them — the first export of any
	// reference necessarily executes on the owning shard.
	if r.owns(target.Cluster) {
		_ = r.heap.MarkEntry(target.Obj)
	}
	// Sender-side lazy log-keeping: DV_i[k][j]++ (or DV_i[i][j]++ when
	// sending the holder's own cluster reference).
	seq := r.engine.SentRef(fo.Cluster(), target.Cluster, to.Cluster)
	xfer := wire.RefTransfer{
		FromCluster: fo.Cluster(),
		IntroSeq:    seq,
		ToObj:       to.Obj,
		ToCluster:   to.Cluster,
		Target:      target,
		Seq:         r.mutatorSeqLocked(to.Obj.Site),
	}
	r.sendRetainedLocked(to.Obj.Site, core.StreamMut, xfer.Seq, xfer)
	r.settleLocked()
	return nil
}

func (r *shard) holds(o *heap.Object, target heap.Ref) bool {
	for _, s := range o.Slots() {
		if s == target {
			return true
		}
	}
	// The holder may hold a different ref to the same cluster (e.g. its
	// own cluster's reference); sending one's own reference is always
	// legal, mirroring the paper's "sends a reference denoting itself".
	return target.Obj == o.ID()
}

// --- GGD cycles ----------------------------------------------------------

// collectShardLocked is this shard's part of a site-wide Collect, one
// event: its OpCollect marker is journaled first — sweeping the last
// proxy of a remote cluster advances the engine clock and emits
// destruction messages, so replay must sweep this shard at this point
// of its journal. Caller holds r.mu (under the event lock) and no other
// shard's lock.
func (r *shard) collectShardLocked() (heap.CollectStats, error) {
	if err := r.journalCycleLocked(wire.OpCollect); err != nil {
		return heap.CollectStats{}, err
	}
	stats := r.collectLocked()
	r.engine.Drain()
	r.settleLocked()
	return stats, nil
}

// refreshShardLocked is this shard's part of a site-wide Refresh, one
// event journaled by its own OpRefresh marker: re-propagate every local
// process's vector and re-ship the unacknowledged retained frames, each
// under its re-send damper, whose round is its ledger's walk. Caller
// holds r.mu (under the event lock) and no other shard's lock.
func (r *shard) refreshShardLocked() error {
	if err := r.journalCycleLocked(wire.OpRefresh); err != nil {
		return err
	}
	r.engine.Refresh()
	r.resendLocked()
	r.settleLocked()
	r.flushAcksLocked()
	return nil
}
