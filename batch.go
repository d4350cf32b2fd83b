package causalgc

import (
	"causalgc/internal/wire"
)

// Batch stages a group of mutator operations against a node and
// commits them atomically with respect to cost: one lock acquisition,
// one write-ahead journal append (one fsync) and one coalesced wire
// envelope per destination site — instead of paying each of those
// per operation, as the singleton Node methods (batches of one) do. The
// protocol itself is unchanged: every frame of a committed batch keeps
// its own retirement-stream sequence, the journal-before-send invariant
// holds per batch, and replay after a crash reconstructs the batch
// exactly (DESIGN.md §3.3).
//
// Staging returns *BatchRef placeholders, so later operations of the
// same batch can chain onto objects that will not exist until Commit
// (deferred reference resolution); lift pre-existing references in
// with Batch.Ref. After Commit, each placeholder resolves to its
// concrete Ref.
//
// A Batch is not safe for concurrent use (build and commit it on one
// goroutine); distinct batches of one Node may commit concurrently
// whenever the node's transport allows concurrent use. A Batch is
// single-shot: Commit may be called once.
type Batch struct {
	n         *Node
	ops       []wire.BatchOp
	refs      []*BatchRef
	err       error
	committed bool
}

// BatchRef is a reference argument of a Batch: either a concrete Ref
// lifted with Batch.Ref, or the deferred result of one of the batch's
// create operations, resolved when the batch commits.
type BatchRef struct {
	b   *Batch
	idx int // ≥ 0: result of batch op idx; -1: concrete
	ref Ref
}

// Ref returns the concrete reference: immediately for lifted refs, and
// after Commit for deferred ones (the zero Ref before Commit, or when
// the op that mints it failed).
func (br *BatchRef) Ref() Ref { return br.ref }

// Obj returns the concrete reference's object identifier (the zero
// ObjectID before a deferred ref resolves).
func (br *BatchRef) Obj() ObjectID { return br.ref.Obj }

// Batch starts an empty batch on the node. Operations staged on it
// take effect only at Commit.
func (n *Node) Batch() *Batch {
	return &Batch{n: n}
}

// Ref lifts a concrete reference (obtained from earlier commits, the
// root, or another node) into the batch, so it can be passed where a
// *BatchRef is expected.
func (b *Batch) Ref(r Ref) *BatchRef {
	return &BatchRef{b: b, idx: -1, ref: r}
}

// Root lifts the node's root object reference into the batch.
func (b *Batch) Root() *BatchRef { return b.Ref(b.n.Root()) }

// Len reports how many operations are staged.
func (b *Batch) Len() int { return len(b.ops) }

// arg validates a *BatchRef argument and renders it as a (concrete
// Ref, deferred 1-based index) pair; a nil or foreign ref poisons the
// batch (the error surfaces at Commit).
func (b *Batch) arg(br *BatchRef) (Ref, int) {
	if br == nil || br.b != b {
		if b.err == nil {
			b.err = ErrBatchRef
		}
		return NilRef, 0
	}
	if br.idx >= 0 {
		return NilRef, br.idx + 1
	}
	return br.ref, 0
}

// stage appends one op; creates get a deferred result placeholder.
func (b *Batch) stage(op wire.BatchOp, creates bool) *BatchRef {
	b.ops = append(b.ops, op)
	var br *BatchRef
	if creates {
		br = &BatchRef{b: b, idx: len(b.ops) - 1}
	}
	b.refs = append(b.refs, br)
	return br
}

// NewLocal stages the creation of an object in a fresh cluster on this
// node, referenced from holder.
func (b *Batch) NewLocal(holder *BatchRef) *BatchRef {
	ref, from := b.arg(holder)
	return b.stage(wire.BatchOp{
		Op:         wire.OpRecord{Kind: wire.OpNewLocal, Holder: ref.Obj},
		HolderFrom: from,
	}, true)
}

// NewLocalIn stages the creation of an object in an existing local
// cluster, referenced from holder.
func (b *Batch) NewLocalIn(holder *BatchRef, cl ClusterID) *BatchRef {
	ref, from := b.arg(holder)
	return b.stage(wire.BatchOp{
		Op:         wire.OpRecord{Kind: wire.OpNewLocalIn, Holder: ref.Obj, Clu: cl},
		HolderFrom: from,
	}, true)
}

// NewRemote stages the creation of an object on the target site,
// referenced from holder.
func (b *Batch) NewRemote(holder *BatchRef, target SiteID) *BatchRef {
	ref, from := b.arg(holder)
	return b.stage(wire.BatchOp{
		Op:         wire.OpRecord{Kind: wire.OpNewRemote, Holder: ref.Obj, Site: target},
		HolderFrom: from,
	}, true)
}

// SendRef stages copying a reference held by from's object to the
// object named by to (on any site), like Node.SendRef.
func (b *Batch) SendRef(from, to, target *BatchRef) {
	fref, ffrom := b.arg(from)
	tref, tfrom := b.arg(to)
	gref, gfrom := b.arg(target)
	b.stage(wire.BatchOp{
		Op:         wire.OpRecord{Kind: wire.OpSendRef, Holder: fref.Obj, To: tref, Target: gref},
		HolderFrom: ffrom, ToFrom: tfrom, TargetFrom: gfrom,
	}, false)
}

// AddRef stages storing target into a new slot of holder's object.
func (b *Batch) AddRef(holder, target *BatchRef) {
	href, hfrom := b.arg(holder)
	tref, tfrom := b.arg(target)
	b.stage(wire.BatchOp{
		Op:         wire.OpRecord{Kind: wire.OpAddRef, Holder: href.Obj, Target: tref},
		HolderFrom: hfrom, TargetFrom: tfrom,
	}, false)
}

// DropRefs stages clearing every slot of holder's object that
// references target's object.
func (b *Batch) DropRefs(holder, target *BatchRef) {
	href, hfrom := b.arg(holder)
	tref, tfrom := b.arg(target)
	b.stage(wire.BatchOp{
		Op:         wire.OpRecord{Kind: wire.OpDropRefs, Holder: href.Obj, Target: tref},
		HolderFrom: hfrom, TargetFrom: tfrom,
	}, false)
}

// ClearSlot stages dropping one slot of holder's object.
func (b *Batch) ClearSlot(holder *BatchRef, slot int) {
	href, hfrom := b.arg(holder)
	b.stage(wire.BatchOp{
		Op:         wire.OpRecord{Kind: wire.OpClearSlot, Holder: href.Obj, Slot: slot},
		HolderFrom: hfrom,
	}, false)
}

// Commit applies the staged group: the whole batch is validated
// against a staged view first — a staging failure (nonexistent
// holder, foreign cluster, bad deferred reference, ...) rejects the
// batch with nothing journaled or applied — then journaled as one
// record and applied in order. Per-op failures after that point (the
// same failures the singleton methods can return after their journal
// append) do not undo earlier ops; the first such error is returned
// and the deferred refs of failed creates stay zero. Commit on a
// closed node returns ErrNodeClosed. Any Commit call — including one
// that failed — consumes the batch: a second call returns
// ErrBatchCommitted, and a rejected batch must be rebuilt, not
// retried. An empty batch commits trivially.
func (b *Batch) Commit() error {
	if b.committed {
		return ErrBatchCommitted
	}
	b.committed = true
	if b.err != nil {
		return b.err
	}
	if len(b.ops) == 0 {
		return nil
	}
	refs, err := b.n.applyBatch(b.ops)
	for i, br := range b.refs {
		if br != nil && i < len(refs) {
			br.ref = refs[i]
		}
	}
	return err
}

// applyBatch runs a staged op group on the node's runtime, behind the
// close gate.
func (n *Node) applyBatch(ops []wire.BatchOp) ([]Ref, error) {
	if err := n.gate.enter(); err != nil {
		return nil, err
	}
	defer n.gate.exit()
	return n.rt.ApplyBatch(ops)
}

// applyOne commits a group of one: the singleton mutator methods of
// Node and Batch.Commit share one stage/journal/apply sequence
// (site.ApplyBatch, site.Apply) and one set of semantics.
func (n *Node) applyOne(op wire.OpRecord) (Ref, error) {
	if err := n.gate.enter(); err != nil {
		return NilRef, err
	}
	defer n.gate.exit()
	return n.rt.Apply(op)
}
