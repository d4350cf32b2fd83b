package site

import (
	"fmt"
	"sort"

	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/wire"
)

// This file is the site half of the batched mutator API (DESIGN.md
// §3.3). A batch commits a group of staged mutator operations under ONE
// lock acquisition, ONE write-ahead journal append (a single
// wire.BatchRecord — one fsync, or one group-commit window share,
// instead of one per op), and per-destination coalesced wire.Envelope
// frames (one transport send per peer instead of one per frame). The
// journal-before-send invariant holds per batch: the group record is
// durable before any frame the group produced leaves the site, exactly
// as the singleton path guarantees per op. Retirement semantics are
// unchanged — every coalesced mutator frame keeps its own stream
// sequence and outbox row; only the transport framing is grouped.

// ApplyBatch commits a group of mutator operations atomically with
// respect to staging: the whole group is validated against a staged
// view first (deferred references checked structurally, holder
// existence checked against the heap plus the batch's own creations),
// and a staging failure rejects the batch before anything is journaled
// or applied. Once staged, the group is journaled as one record and
// applied in order; a per-op apply failure (exactly the failures the
// singleton path could hit after its journal append) does not undo
// earlier ops — the first such error is returned after the remaining
// ops ran, and replay reproduces the same partial outcome
// deterministically.
//
// The batch commits on the shard owning its first concrete holder
// (staging requires every concrete holder to live there; fresh clusters
// minted by a multi-op batch pin to that shard, so the whole group
// stays local — see premintBatchLocked).
//
// The returned slice has one Ref per op: the minted reference for
// creates, the zero Ref otherwise.
func (s *Site) ApplyBatch(ops []wire.BatchOp) ([]heap.Ref, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	r := s.shards[0]
	for _, bop := range ops {
		if bop.HolderFrom == 0 && bop.Op.Holder.Valid() {
			r = s.shardFor(bop.Op.Holder)
			break
		}
	}
	r.mu.Lock()
	refs, err := r.commitBatchLocked(ops)
	r.mu.Unlock()
	s.afterEvent()
	return refs, err
}

// commitBatchLocked runs the commit sequence of runOpLocked once for
// the whole group: stage, pre-mint, one journal append, apply. Caller
// holds r.mu.
func (r *shard) commitBatchLocked(ops []wire.BatchOp) ([]heap.Ref, error) {
	if err := r.stageBatchLocked(ops); err != nil {
		return nil, err
	}
	ops = r.premintBatchLocked(ops)
	if r.journaling() {
		if err := r.appendLocked(&wire.WALRecord{Batch: &wire.BatchRecord{Ops: ops}}); err != nil {
			return nil, fmt.Errorf("site %v: journal batch (%d ops): %w", r.site.id, len(ops), err)
		}
	}
	return r.applyBatchLocked(ops)
}

// applyBatchLocked applies a staged (or replayed) batch: coalescing on,
// ops applied in order with deferred arguments resolved from earlier
// results, acks flushed, envelopes shipped. Caller holds r.mu; the
// batch record must already be durable (or replaying).
func (r *shard) applyBatchLocked(ops []wire.BatchOp) ([]heap.Ref, error) {
	opened := r.beginCoalesceLocked()
	refs := make([]heap.Ref, len(ops))
	var firstErr error
	for i, bop := range ops {
		op, err := resolveBatchOp(bop, refs)
		if err == nil {
			refs[i], err = r.applyOpLocked(op)
		}
		if err != nil && firstErr == nil {
			if len(ops) > 1 {
				err = fmt.Errorf("batch op %d: %w", i, err)
			}
			firstErr = err
		}
	}
	// Piggyback any acknowledgements the commit window owes (normally
	// none: inbound dispatch flushes its own) onto the same envelopes.
	r.flushAcksLocked()
	if opened {
		r.flushCoalesceLocked()
	}
	return refs, firstErr
}

// premintBatchLocked pre-mints a staged batch: the drawn identities,
// placements and stream sequences ride the journaled BatchRecord, so
// replay reproduces them exactly (see premintLocked).
// Fresh clusters are pinned to the executing shard for multi-op
// batches — a deferred reference to a cross-shard creation would name
// an object the executing shard will never materialise — while
// singleton batches (every Node one-op commit) keep the full placement
// policy. Deferred arguments are resolved against the refs the batch's
// own earlier pre-mints predict, only for the duration of each op's
// pre-mint — the journaled record keeps its deferred form, and
// resolveBatchOp re-derives the same refs at apply (and replay) time.
// The ops slice is copied before mutation: callers own their argument.
// Caller holds r.mu.
func (r *shard) premintBatchLocked(ops []wire.BatchOp) []wire.BatchOp {
	if r.replaying {
		return ops
	}
	pin := len(ops) > 1
	minted := make([]wire.BatchOp, len(ops))
	copy(minted, ops)
	preds := make([]heap.Ref, len(minted))
	for i := range minted {
		bop := &minted[i]
		op := &bop.Op
		holder, to, target := op.Holder, op.To, op.Target
		if bop.HolderFrom > 0 {
			op.Holder = preds[bop.HolderFrom-1].Obj
		}
		if bop.ToFrom > 0 {
			op.To = preds[bop.ToFrom-1]
		}
		if bop.TargetFrom > 0 {
			op.Target = preds[bop.TargetFrom-1]
		}
		r.premintLocked(op, pin)
		preds[i] = predictedRef(r.site.id, *op)
		op.Holder, op.To, op.Target = holder, to, target
	}
	return minted
}

// predictedRef computes the Ref a pre-minted create will return when it
// applies — the resolution context for later ops' deferred arguments
// during batch pre-mint. Non-creates (and ops that mint nothing)
// predict the zero Ref, matching resolveBatchOp's treatment of a failed
// deferred source.
func predictedRef(id ids.SiteID, op wire.OpRecord) heap.Ref {
	switch op.Kind {
	case wire.OpNewLocal:
		return heap.Ref{
			Obj:     ids.ObjectID{Site: id, Seq: op.MintObj},
			Cluster: ids.ClusterID{Site: id, Seq: op.MintClu},
		}
	case wire.OpNewLocalIn:
		return heap.Ref{
			Obj:     ids.ObjectID{Site: id, Seq: op.MintObj},
			Cluster: op.Clu,
		}
	case wire.OpNewRemote:
		seq := uint64(id)<<32 | op.MintObj
		return heap.Ref{
			Obj:     ids.ObjectID{Site: op.Site, Seq: seq},
			Cluster: ids.ClusterID{Site: op.Site, Seq: seq},
		}
	}
	return heap.NilRef
}

// resolveBatchOp substitutes deferred arguments with the Refs minted by
// earlier ops of the same batch. Indices were range-checked at staging;
// a deferred source that failed to apply resolves to the zero Ref, so
// the dependent op fails the same way on every replay.
func resolveBatchOp(bop wire.BatchOp, refs []heap.Ref) (wire.OpRecord, error) {
	op := bop.Op
	if bop.HolderFrom > 0 {
		if bop.HolderFrom > len(refs) {
			return op, fmt.Errorf("holder: %w", ErrBatchRef)
		}
		op.Holder = refs[bop.HolderFrom-1].Obj
	}
	if bop.ToFrom > 0 {
		if bop.ToFrom > len(refs) {
			return op, fmt.Errorf("to: %w", ErrBatchRef)
		}
		op.To = refs[bop.ToFrom-1]
	}
	if bop.TargetFrom > 0 {
		if bop.TargetFrom > len(refs) {
			return op, fmt.Errorf("target: %w", ErrBatchRef)
		}
		op.Target = refs[bop.TargetFrom-1]
	}
	return op, nil
}

// --- Staging -------------------------------------------------------------

// stagedView tracks what a batch will have created by the time each op
// applies: which earlier ops mint objects (and on which site), and
// which slot additions the batch itself stages — the deferred-Ref
// resolution context for validating ops against state that does not
// exist until Commit.
type stagedView struct {
	// create[i] is the site of the object op i creates (NoSite when op i
	// creates nothing).
	create []ids.SiteID
	// slots records staged slot additions as (holder, target) argument
	// pairs; concrete arguments use their identity, deferred ones their
	// batch index. Additions only: staged removals are not simulated, so
	// staging is deliberately lenient there and the apply-time check
	// (which sees the true intermediate heap) stays authoritative.
	slots map[stagedSlot]struct{}
}

// stagedArg names an op argument during staging: a concrete object or
// the deferred result of an earlier batch op.
type stagedArg struct {
	obj ids.ObjectID
	idx int // 1-based batch index when deferred; 0 when concrete
}

// stagedSlot is one staged slot addition.
type stagedSlot struct {
	holder stagedArg
	target stagedArg
}

// stageBatchLocked validates a whole batch before anything is journaled
// or applied: structural checks on deferred indices, plus the same
// checks the singleton entry points perform before their journal append
// (holder existence, foreign clusters, self-remote, SendRef holdership)
// evaluated against the heap and the staged view. Caller holds r.mu.
func (r *shard) stageBatchLocked(ops []wire.BatchOp) error {
	if len(ops) == 1 && ops[0].HolderFrom == 0 && ops[0].ToFrom == 0 && ops[0].TargetFrom == 0 {
		// The singleton fast path (every Node one-element batch): no
		// deferred arguments means no staged view to build — the
		// concrete pre-journal checks are the whole story. Non-batchable
		// kinds fall through to the full walk, which rejects them.
		switch ops[0].Op.Kind {
		case wire.OpNewLocal, wire.OpNewLocalIn, wire.OpNewRemote,
			wire.OpSendRef, wire.OpAddRef, wire.OpDropRefs, wire.OpClearSlot:
			return r.stageOpLocked(ops[0].Op)
		}
	}
	view := &stagedView{
		create: make([]ids.SiteID, len(ops)),
		slots:  make(map[stagedSlot]struct{}),
	}
	for i, bop := range ops {
		if err := r.stageBatchOpLocked(i, bop, view); err != nil {
			if len(ops) > 1 {
				return fmt.Errorf("batch op %d: %w", i, err)
			}
			return err
		}
	}
	return nil
}

// checkDeferred validates one deferred argument index: it must name an
// earlier op of the batch that creates an object.
func checkDeferred(name string, from, i int, view *stagedView) (stagedArg, error) {
	if from > i || view.create[from-1] == ids.NoSite {
		return stagedArg{}, fmt.Errorf("%s from op %d: %w", name, from-1, ErrBatchRef)
	}
	return stagedArg{idx: from}, nil
}

// stageHolder resolves and validates a holder argument that must name
// an existing local object (the pre-journal check of the create and
// SendRef entry points).
func (r *shard) stageHolder(opName string, i int, bop wire.BatchOp, view *stagedView) (stagedArg, error) {
	if bop.HolderFrom > 0 {
		arg, err := checkDeferred("holder", bop.HolderFrom, i, view)
		if err != nil {
			return arg, err
		}
		if view.create[bop.HolderFrom-1] != r.site.id {
			// The deferred holder is created on another site by this very
			// batch: it can never be a local holder here.
			return arg, fmt.Errorf("site %v: %s (batch op %d): %w", r.site.id, opName, bop.HolderFrom-1, heap.ErrNoSuchObject)
		}
		return arg, nil
	}
	if r.heap.Object(bop.Op.Holder) == nil {
		return stagedArg{}, fmt.Errorf("site %v: %s %v: %w", r.site.id, opName, bop.Op.Holder, heap.ErrNoSuchObject)
	}
	return stagedArg{obj: bop.Op.Holder}, nil
}

// stageBatchOpLocked validates one staged op and extends the view.
func (r *shard) stageBatchOpLocked(i int, bop wire.BatchOp, view *stagedView) error {
	// Structural validity of every deferred argument first.
	for _, d := range []struct {
		name string
		from int
	}{{"holder", bop.HolderFrom}, {"to", bop.ToFrom}, {"target", bop.TargetFrom}} {
		if d.from > 0 {
			if _, err := checkDeferred(d.name, d.from, i, view); err != nil {
				return err
			}
		}
	}
	switch bop.Op.Kind {
	case wire.OpNewLocal:
		holder, err := r.stageHolder("NewLocal holder", i, bop, view)
		if err != nil {
			return err
		}
		view.create[i] = r.site.id
		view.slots[stagedSlot{holder: holder, target: stagedArg{idx: i + 1}}] = struct{}{}
	case wire.OpNewLocalIn:
		if bop.Op.Clu.Site != r.site.id {
			return fmt.Errorf("site %v: NewLocalIn %v: %w", r.site.id, bop.Op.Clu, heap.ErrForeignCluster)
		}
		holder, err := r.stageHolder("NewLocalIn holder", i, bop, view)
		if err != nil {
			return err
		}
		view.create[i] = r.site.id
		view.slots[stagedSlot{holder: holder, target: stagedArg{idx: i + 1}}] = struct{}{}
	case wire.OpNewRemote:
		holder, err := r.stageHolder("NewRemote holder", i, bop, view)
		if err != nil {
			return err
		}
		if bop.Op.Site == r.site.id {
			return fmt.Errorf("site %v: NewRemote: %w", r.site.id, ErrRemoteSelf)
		}
		if bop.Op.Site == ids.NoSite {
			return fmt.Errorf("site %v: NewRemote: %w", r.site.id, ErrNoSite)
		}
		view.create[i] = bop.Op.Site
		view.slots[stagedSlot{holder: holder, target: stagedArg{idx: i + 1}}] = struct{}{}
	case wire.OpSendRef:
		holder, err := r.stageHolder("SendRef from", i, bop, view)
		if err != nil {
			return err
		}
		target := stagedArg{obj: bop.Op.Target.Obj, idx: bop.TargetFrom}
		if target.idx > 0 {
			target.obj = ids.ObjectID{}
		}
		if !r.stagedHolds(holder, target, bop.Op.Target, view) {
			return fmt.Errorf("site %v: SendRef: %v of %v: %w", r.site.id, bop.Op.Target, bop.Op.Holder, ErrNotHolder)
		}
		// A copy to a local destination stages a new slot there.
		to := stagedArg{obj: bop.Op.To.Obj, idx: bop.ToFrom}
		if to.idx > 0 {
			to.obj = ids.ObjectID{}
		}
		view.slots[stagedSlot{holder: to, target: target}] = struct{}{}
	case wire.OpAddRef:
		// Journal-first semantics (like the singleton path): nothing to
		// pre-validate, but the staged slot feeds later holds checks.
		holder := stagedArg{obj: bop.Op.Holder, idx: bop.HolderFrom}
		target := stagedArg{obj: bop.Op.Target.Obj, idx: bop.TargetFrom}
		if holder.idx > 0 {
			holder.obj = ids.ObjectID{}
		}
		if target.idx > 0 {
			target.obj = ids.ObjectID{}
		}
		view.slots[stagedSlot{holder: holder, target: target}] = struct{}{}
	case wire.OpDropRefs, wire.OpClearSlot:
		// Journal-first semantics; staged removals are not simulated.
	default:
		return fmt.Errorf("%v: not a batchable operation: %w", bop.Op.Kind, ErrBatchRef)
	}
	return nil
}

// stagedHolds is the staged-view counterpart of holds: the sender
// either holds the target in the live heap, stages the slot earlier in
// this batch, or sends a reference denoting itself.
func (r *shard) stagedHolds(holder, target stagedArg, concrete heap.Ref, view *stagedView) bool {
	if _, ok := view.slots[stagedSlot{holder: holder, target: target}]; ok {
		return true
	}
	if holder.idx > 0 {
		// A batch-created holder can only hold what the batch staged —
		// except its own reference, which is always sendable.
		return target.idx == holder.idx
	}
	if target.idx > 0 {
		return false
	}
	fo := r.heap.Object(holder.obj)
	return fo != nil && r.holds(fo, concrete)
}

// stageOpLocked validates one concrete (singleton) operation before its
// journal append: an illegal operation is rejected without journaling.
// Caller holds r.mu.
func (r *shard) stageOpLocked(op wire.OpRecord) error {
	switch op.Kind {
	case wire.OpNewLocal:
		if r.heap.Object(op.Holder) == nil {
			return fmt.Errorf("site %v: NewLocal holder %v: %w", r.site.id, op.Holder, heap.ErrNoSuchObject)
		}
	case wire.OpNewLocalIn:
		if op.Clu.Site != r.site.id {
			return fmt.Errorf("site %v: NewLocalIn %v: %w", r.site.id, op.Clu, heap.ErrForeignCluster)
		}
		if r.heap.Object(op.Holder) == nil {
			return fmt.Errorf("site %v: NewLocalIn holder %v: %w", r.site.id, op.Holder, heap.ErrNoSuchObject)
		}
	case wire.OpNewRemote:
		if r.heap.Object(op.Holder) == nil {
			return fmt.Errorf("site %v: NewRemote holder %v: %w", r.site.id, op.Holder, heap.ErrNoSuchObject)
		}
		if op.Site == r.site.id {
			return fmt.Errorf("site %v: NewRemote: %w", r.site.id, ErrRemoteSelf)
		}
		if op.Site == ids.NoSite && !r.replaying {
			// New validation, gated off during replay: a WAL written
			// before the check could hold a journaled zero-site
			// NewRemote whose application bumped the mint counter —
			// skipping it on replay would shift every later minted
			// identity. (The check in the batch staging walk needs no
			// gate: batch records replay without re-staging.)
			return fmt.Errorf("site %v: NewRemote: %w", r.site.id, ErrNoSite)
		}
	case wire.OpSendRef:
		fo := r.heap.Object(op.Holder)
		if fo == nil {
			return fmt.Errorf("site %v: SendRef from %v: %w", r.site.id, op.Holder, heap.ErrNoSuchObject)
		}
		if !r.holds(fo, op.Target) {
			return fmt.Errorf("site %v: SendRef: %v of %v: %w", r.site.id, op.Target, op.Holder, ErrNotHolder)
		}
	}
	return nil
}

// --- Wire-level coalescing -----------------------------------------------

// emitLocked routes one outbound frame: buffered into the per-peer
// coalescer while a commit or envelope-dispatch window is open, sent
// directly otherwise. A frame addressed to the own site is a
// cross-shard message: it bypasses the coalescer and enters the ordered
// handoff queue of its destination shard. During replay self-addressed
// frames are dropped — the receiving shard's journaled delivery records
// already carry them, and re-routing would apply them twice; a crash
// between the sender's journal append and the receiver's is healed like
// any lost frame (outbox re-send, refresh). Caller holds r.mu.
func (r *shard) emitLocked(to ids.SiteID, p netsim.Payload) {
	if to == r.site.id {
		if !r.replaying {
			r.site.enqueue(p)
		}
		return
	}
	if r.coalescing {
		if r.coalesce == nil {
			r.coalesce = make(map[ids.SiteID][]netsim.Payload)
		}
		r.coalesce[to] = append(r.coalesce[to], p)
		return
	}
	r.site.net.Send(r.site.id, to, p)
}

// beginCoalesceLocked opens a coalescing window if none is open and
// reports whether this call opened it (the opener flushes). Caller
// holds r.mu.
func (r *shard) beginCoalesceLocked() bool {
	if r.coalescing {
		return false
	}
	r.coalescing = true
	return true
}

// flushCoalesceLocked closes the coalescing window and ships the
// buffered frames: one wire.Envelope per destination (chunked at
// Options.MaxBatchFrames), a single frame sent bare — so a one-frame
// "batch" is wire-identical to the singleton path. Destinations flush
// in site order for deterministic schedules under the simulator.
// Caller holds r.mu.
func (r *shard) flushCoalesceLocked() {
	buf := r.coalesce
	r.coalescing = false
	r.coalesce = nil
	if len(buf) == 0 {
		return
	}
	peers := make([]ids.SiteID, 0, len(buf))
	for to := range buf {
		peers = append(peers, to)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	max := r.site.opts.MaxBatchFrames
	if max <= 0 {
		max = DefaultMaxBatchFrames
	}
	for _, to := range peers {
		frames := buf[to]
		for len(frames) > 0 {
			n := len(frames)
			if n > max {
				n = max
			}
			if n == 1 {
				r.site.net.Send(r.site.id, to, frames[0])
			} else {
				r.site.net.Send(r.site.id, to, wire.Envelope{Frames: frames[:n:n]})
			}
			frames = frames[n:]
		}
	}
}
