package site

import (
	"fmt"
	"sort"

	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/wire"
)

// This file is the commit path of a site (DESIGN.md §3.3). Every mutator
// commit is a group of n >= 1 operations — the singleton Site methods
// commit groups of one — and follows ONE sequence under ONE lock
// acquisition: stage (an illegal group is rejected before anything is
// journaled), ONE write-ahead journal append (a single wire.BatchRecord
// — one fsync for the whole group), then apply inside one coalescing
// window (one transport send per peer; a single frame ships bare). The journal-before-send invariant holds
// per commit: the group record is durable before any frame the group
// produced leaves the site. Retirement semantics are per frame — every
// coalesced mutator frame keeps its own stream sequence and outbox row;
// only the transport framing is grouped. Apply draws the identities,
// placements and stream sequences; a durable site commits under its
// event lock, so its journal order is its execution order, and replay
// — the journaled group fed back through the same function with
// staging and journaling suppressed — draws the same values.

// ApplyBatch commits a group of mutator operations atomically with
// respect to staging: the whole group is validated against a staged
// view first (deferred references checked structurally, holder
// existence checked against the heap plus the batch's own creations),
// and a staging failure rejects the batch before anything is journaled
// or applied. Once staged, the group is journaled as one record and
// applied in order; a per-op apply failure does not undo earlier ops —
// the first such error is returned after the remaining ops ran, and
// replay reproduces the same partial outcome deterministically.
//
// The batch commits on the shard owning its first concrete holder
// (staging requires every concrete holder to live there; fresh clusters
// minted by a multi-op batch pin to that shard, so the whole group
// stays local — a deferred reference to a cross-shard creation would
// name an object the executing shard never materialises).
//
// The returned slice has one Ref per op: the minted reference for
// creates, the zero Ref otherwise.
func (s *Site) ApplyBatch(ops []wire.BatchOp) ([]heap.Ref, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	r := s.shards[0]
	for i := range ops {
		if ops[i].HolderFrom == 0 && ops[i].Op.Holder.Valid() {
			r = s.shardFor(ops[i].Op.Holder)
			break
		}
	}
	refs := make([]heap.Ref, len(ops))
	return refs, s.commit(r, ops, refs)
}

// Apply commits one mutator operation: a group of one, committed on the
// shard owning the op's holder.
func (s *Site) Apply(op wire.OpRecord) (heap.Ref, error) {
	return s.commitOne(s.shardFor(op.Holder), op)
}

// commitOne commits a group of one on shard r; the one-element result
// stays on the stack.
func (s *Site) commitOne(r *shard, op wire.OpRecord) (heap.Ref, error) {
	var ref [1]heap.Ref
	err := s.commit(r, []wire.BatchOp{{Op: op}}, ref[:])
	return ref[0], err
}

// commit commits ops on shard r, filling refs (one per op), and settles
// the commit's cross-shard effects.
func (s *Site) commit(r *shard, ops []wire.BatchOp, refs []heap.Ref) error {
	s.lockEvent()
	r.mu.Lock()
	err := r.commitLocked(ops, refs)
	s.unlock(r)
	return err
}

// commitLocked is the one commit sequence — stage, one journal append,
// apply — for a group of n >= 1 ops; refs receives one Ref per op.
// During replay the group is a journaled record: it was staged before
// it was appended, so only the apply runs. Caller holds r.mu (under the
// event lock).
func (r *shard) commitLocked(ops []wire.BatchOp, refs []heap.Ref) error {
	if !r.site.replaying {
		if err := r.stageBatchLocked(ops); err != nil {
			return err
		}
		if r.journaling() {
			// The record takes a copy, so ops never escapes: a volatile
			// site's group of one stays on the caller's stack.
			rec := &wire.WALRecord{Batch: &wire.BatchRecord{Ops: append([]wire.BatchOp(nil), ops...)}}
			if err := r.appendLocked(rec); err != nil {
				return fmt.Errorf("site %v: journal commit (%d ops): %w", r.site.id, len(ops), err)
			}
		}
	}
	opened := r.beginCoalesceLocked()
	pin := len(ops) > 1
	var firstErr error
	for i := range ops {
		op, err := resolveBatchOp(&ops[i], refs[:i])
		if err == nil {
			refs[i], err = r.applyOpLocked(op, pin)
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
	return firstErr
}

// resolveBatchOp substitutes deferred arguments with the Refs minted by
// the earlier ops of the same group (refs holds their results). Indices
// were range-checked at staging; the check here guards a replayed
// record. A deferred source that failed to apply resolves to the zero
// Ref, so the dependent op fails the same way on every replay.
func resolveBatchOp(bop *wire.BatchOp, refs []heap.Ref) (wire.OpRecord, error) {
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

// stagedArg names an op argument during staging: a concrete object or
// the deferred result of an earlier op of the group.
type stagedArg struct {
	obj ids.ObjectID
	idx int // 1-based group index when deferred; 0 when concrete
}

// arg renders one (concrete, deferred index) argument pair.
func arg(obj ids.ObjectID, from int) stagedArg {
	if from > 0 {
		return stagedArg{idx: from}
	}
	return stagedArg{obj: obj}
}

// stagedSlot is one staged slot addition, as a (holder, target)
// argument pair.
type stagedSlot struct {
	holder stagedArg
	target stagedArg
}

// stagedSlots records the slot additions a group stages — the context
// for validating a SendRef against holdership that does not exist until
// the group commits. Additions only: staged removals are not simulated,
// so staging is deliberately lenient there and the apply-time check
// (which sees the true intermediate heap) stays authoritative. The map
// is allocated on the first addition a later op can read, so a group of
// one never builds it.
type stagedSlots map[stagedSlot]struct{}

// createSite is the site of the object op creates (NoSite when it
// creates none): what a later op's deferred argument may name.
func (r *shard) createSite(op *wire.OpRecord) ids.SiteID {
	switch op.Kind {
	case wire.OpNewLocal, wire.OpNewLocalIn:
		return r.site.id
	case wire.OpNewRemote:
		return op.Site
	}
	return ids.NoSite
}

// stageBatchLocked validates a whole group before anything is journaled
// or applied: structural checks on deferred indices, plus the
// pre-journal checks of each kind (holder existence, foreign clusters,
// self-remote, SendRef holdership) evaluated against the heap and the
// slots the group itself stages. Caller holds r.mu.
func (r *shard) stageBatchLocked(ops []wire.BatchOp) error {
	var slots stagedSlots
	for i := range ops {
		if err := r.stageBatchOpLocked(ops, i, &slots); err != nil {
			if len(ops) > 1 {
				return fmt.Errorf("batch op %d: %w", i, err)
			}
			return err
		}
	}
	return nil
}

// checkDeferred validates one deferred argument of op i: it must name
// an earlier op of the group that creates an object.
func (r *shard) checkDeferred(name string, from int, ops []wire.BatchOp, i int) error {
	if from > i || from > 0 && r.createSite(&ops[from-1].Op) == ids.NoSite {
		return fmt.Errorf("%s from op %d: %w", name, from-1, ErrBatchRef)
	}
	return nil
}

// stageHolder validates a holder argument that must name an existing
// local object (the pre-journal check of the creates and SendRef).
func (r *shard) stageHolder(opName string, ops []wire.BatchOp, i int) error {
	bop := &ops[i]
	if bop.HolderFrom > 0 {
		if r.createSite(&ops[bop.HolderFrom-1].Op) != r.site.id {
			// The deferred holder is created on another site by this very
			// group: it can never be a local holder here.
			return fmt.Errorf("site %v: %s (batch op %d): %w", r.site.id, opName, bop.HolderFrom-1, heap.ErrNoSuchObject)
		}
		return nil
	}
	if r.heap.Object(bop.Op.Holder) == nil {
		return fmt.Errorf("site %v: %s %v: %w", r.site.id, opName, bop.Op.Holder, heap.ErrNoSuchObject)
	}
	return nil
}

// stageBatchOpLocked validates op i of the group and records the slot
// it stages, when a later op can read it.
func (r *shard) stageBatchOpLocked(ops []wire.BatchOp, i int, slots *stagedSlots) error {
	bop := &ops[i]
	op := &bop.Op
	// Structural validity of every deferred argument first.
	if err := r.checkDeferred("holder", bop.HolderFrom, ops, i); err != nil {
		return err
	}
	if err := r.checkDeferred("to", bop.ToFrom, ops, i); err != nil {
		return err
	}
	if err := r.checkDeferred("target", bop.TargetFrom, ops, i); err != nil {
		return err
	}
	holder := arg(op.Holder, bop.HolderFrom)
	target := arg(op.Target.Obj, bop.TargetFrom)
	switch op.Kind {
	case wire.OpNewLocal:
		if err := r.stageHolder("NewLocal holder", ops, i); err != nil {
			return err
		}
		target = stagedArg{idx: i + 1}
	case wire.OpNewLocalIn:
		if op.Clu.Site != r.site.id {
			return fmt.Errorf("site %v: NewLocalIn %v: %w", r.site.id, op.Clu, heap.ErrForeignCluster)
		}
		if err := r.stageHolder("NewLocalIn holder", ops, i); err != nil {
			return err
		}
		target = stagedArg{idx: i + 1}
	case wire.OpNewRemote:
		if err := r.stageHolder("NewRemote holder", ops, i); err != nil {
			return err
		}
		if op.Site == r.site.id {
			return fmt.Errorf("site %v: NewRemote: %w", r.site.id, ErrRemoteSelf)
		}
		if op.Site == ids.NoSite {
			return fmt.Errorf("site %v: NewRemote: %w", r.site.id, ErrNoSite)
		}
		target = stagedArg{idx: i + 1}
	case wire.OpSendRef:
		if err := r.stageHolder("SendRef from", ops, i); err != nil {
			return err
		}
		if !r.stagedHolds(holder, target, op.Target, *slots) {
			return fmt.Errorf("site %v: SendRef: %v of %v: %w", r.site.id, op.Target, op.Holder, ErrNotHolder)
		}
		// A copy to a local destination stages a new slot there.
		holder = arg(op.To.Obj, bop.ToFrom)
	case wire.OpAddRef:
		// Journal-first semantics: nothing to pre-validate, but the staged
		// slot feeds later holds checks.
	case wire.OpNewCluster, wire.OpDropRefs, wire.OpClearSlot:
		// Journal-first semantics; no slot is staged (removals are not
		// simulated).
		return nil
	default:
		return fmt.Errorf("%v: not a mutator operation: %w", op.Kind, ErrBatchRef)
	}
	if i+1 < len(ops) {
		if *slots == nil {
			*slots = make(stagedSlots)
		}
		(*slots)[stagedSlot{holder: holder, target: target}] = struct{}{}
	}
	return nil
}

// stagedHolds is the staged counterpart of holds: the sender either
// holds the target in the live heap, stages the slot earlier in this
// group, or sends a reference denoting itself.
func (r *shard) stagedHolds(holder, target stagedArg, concrete heap.Ref, slots stagedSlots) bool {
	if _, ok := slots[stagedSlot{holder: holder, target: target}]; ok {
		return true
	}
	if holder.idx > 0 {
		// A group-created holder can only hold what the group staged —
		// except its own reference, which is always sendable.
		return target.idx == holder.idx
	}
	if target.idx > 0 {
		return false
	}
	fo := r.heap.Object(holder.obj)
	return fo != nil && r.holds(fo, concrete)
}

// --- Wire-level coalescing -----------------------------------------------

// maxEnvelopeFrames caps the frames coalesced into one wire.Envelope: a
// larger group flushes in several envelopes. Large enough that
// realistic commits fit one envelope, small enough that one envelope
// stays well under transport frame limits.
const maxEnvelopeFrames = 256

// outFrame is one outbound frame buffered by an open coalescing window.
type outFrame struct {
	to ids.SiteID
	p  netsim.Payload
}

// emitLocked routes one outbound frame: buffered into the coalescer
// while a commit or envelope-dispatch window is open, sent directly
// otherwise. A frame addressed to the own site is a cross-shard
// message: it bypasses the coalescer and waits in r.handoff for
// whoever releases r.mu to deliver it. During replay self-addressed
// frames are dropped — the receiving shard's journaled delivery records
// already carry them, and re-routing would apply them twice; a crash
// between the sender's journal append and the receiver's is healed like
// any lost frame (outbox re-send, refresh). Caller holds r.mu.
func (r *shard) emitLocked(to ids.SiteID, p netsim.Payload) {
	switch {
	case to == r.site.id:
		if !r.site.replaying {
			r.handoff = append(r.handoff, p)
		}
	case r.coalescing:
		r.coalesce = append(r.coalesce, outFrame{to: to, p: p})
	default:
		r.site.net.Send(r.site.id, to, p)
	}
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
// maxEnvelopeFrames), a single frame sent bare — so a commit that emits
// one frame toward a peer puts exactly that frame on the wire.
// Destinations flush in site order, each one's frames in emit order,
// for deterministic schedules under the simulator; the common window
// (no frame, or one peer) is in that order already and is not sorted.
// Caller holds r.mu.
func (r *shard) flushCoalesceLocked() {
	buf := r.coalesce
	r.coalescing = false
	if len(buf) == 0 {
		return
	}
	for i := 1; i < len(buf); i++ {
		if buf[i].to < buf[i-1].to {
			sort.SliceStable(buf, func(a, b int) bool { return buf[a].to < buf[b].to })
			break
		}
	}
	for len(buf) > 0 {
		to, n := buf[0].to, 1
		for n < len(buf) && n < maxEnvelopeFrames && buf[n].to == to {
			n++
		}
		if n == 1 {
			r.site.net.Send(r.site.id, to, buf[0].p)
		} else {
			frames := make([]netsim.Payload, n)
			for i := range frames {
				frames[i] = buf[i].p
			}
			r.site.net.Send(r.site.id, to, wire.Envelope{Frames: frames})
		}
		buf = buf[n:]
	}
	// The buffer is reused by the next window; drop the payload
	// references it still holds.
	clear(r.coalesce)
	r.coalesce = r.coalesce[:0]
}
