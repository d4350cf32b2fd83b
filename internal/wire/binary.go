// The binary format of frames and WAL records: the bytes behind
// EncodeFrame, DecodeFrame, EncodeRecord and DecodeRecord (codec.go).
//
// Every value opens with codecVersion. A frame follows with From, To
// and one payload; a record with Shard, Width, one record tag (Op,
// Deliver, Batch) and that arm's body. A payload is one tag byte and its
// fields in declaration order; an Envelope's body is a count and that
// many tagged payloads, none of them an Envelope. Unsigned integers,
// ids, sequences and stamps are uvarints; the signed Shard, Width,
// Slot and *From fields zigzag varints; bools and the one-byte
// enums (OpKind, core.Stream) one byte. A ClusterID is
// uvarint(Site<<1 | Root) then uvarint(Seq). A map (a vector or a
// propagation's row map) is uvarint(len+1), 0 for a nil map, followed
// by its entries: gob kept an empty map apart from a nil one, and the
// decoded values stay exactly what gob's were. A slice (cluster
// list, envelope frames, batch ops) is a uvarint count followed by its
// entries, and an empty one decodes as nil, as gob's did.
//
// Decoding trusts nothing: every count is checked against the bytes
// left (at the entry kind's minimum encoded size) before anything is
// allocated, and an unknown version, tag or stream, a bool other than 0
// or 1, an id out of range, a repeated map key or a trailing byte is an
// error.

package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/vclock"
)

// codecVersion leads every encoded frame and record. No gob stream
// starts with this byte (gob opens with the length of a type
// definition), so a gob-era journal is refused by version, not
// misparsed. Version 2 dropped Destroy's finalisation-stream flag, so a
// v1 journal, whose frames may name the retired stream, is refused.
// Version 3 dropped the draws an op record carried (apply draws), so a
// v2 journal, whose ops would decode misaligned, is refused. Version 4
// dropped the floor-advisory payload, which renumbered the tags after
// it, so a v3 journal, whose propagations and envelopes would decode
// under the wrong tag, is refused.
const codecVersion = 4

// Payload tags.
const (
	tagCreate byte = iota + 1
	tagRefTransfer
	tagDestroy
	tagAssert
	tagFrameAck
	tagPropagate
	tagEnvelope
)

// Record tags: which arm of a WALRecord is set.
const (
	recOp byte = iota + 1
	recDeliver
	recBatch
)

// Minimum encoded sizes of the repeated entries, which bound a count by
// the bytes left: a cluster id is two uvarints, a vector entry a cluster
// id and a stamp (uvarint + bool), a row-map entry a cluster id and two
// counts, a payload a tag and at least two one-byte fields, and a batch
// op an OpRecord (kind byte, object id, site, cluster id, two refs,
// one integer) plus three varints.
const (
	minCluster = 2
	minEntry   = minCluster + 2
	minRow     = minCluster + 2
	minPayload = 3
	minOp      = 1 + 2 + 1 + minCluster + 2*(2+minCluster) + 1 + 3
)

var errNestedEnvelope = errors.New("an Envelope never nests another Envelope")

// --- encoding -------------------------------------------------------------

// encoder appends the binary form of values to b.
type encoder struct{ b []byte }

func (e *encoder) u8(v byte)         { e.b = append(e.b, v) }
func (e *encoder) uvarint(v uint64)  { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) varint(v int)      { e.b = binary.AppendVarint(e.b, int64(v)) }
func (e *encoder) site(s ids.SiteID) { e.uvarint(uint64(s)) }

func (e *encoder) flag(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) cluster(c ids.ClusterID) {
	x := uint64(c.Site) << 1
	if c.Root {
		x |= 1
	}
	e.uvarint(x)
	e.uvarint(c.Seq)
}

func (e *encoder) object(o ids.ObjectID) {
	e.site(o.Site)
	e.uvarint(o.Seq)
}

func (e *encoder) ref(r heap.Ref) {
	e.object(r.Obj)
	e.cluster(r.Cluster)
}

// mapLen writes a map's length as len+1, or 0 for a nil map.
func (e *encoder) mapLen(n int, isNil bool) {
	if isNil {
		e.uvarint(0)
		return
	}
	e.uvarint(uint64(n) + 1)
}

func (e *encoder) vector(v vclock.Vector) {
	e.mapLen(len(v), v == nil)
	for c, s := range v {
		e.cluster(c)
		e.uvarint(s.Seq)
		e.flag(s.Eps)
	}
}

func (e *encoder) clusters(cs []ids.ClusterID) {
	e.uvarint(uint64(len(cs)))
	for _, c := range cs {
		e.cluster(c)
	}
}

func (e *encoder) destroyMsg(m *core.DestroyMsg) {
	e.vector(m.Auth)
	e.vector(m.Hints)
	e.vector(m.Processed)
}

func (e *encoder) propagation(m *core.Propagation) {
	e.uvarint(m.Clock)
	e.vector(m.Auth)
	e.clusters(m.HintCols)
	e.mapLen(len(m.Rows), m.Rows == nil)
	for c, r := range m.Rows {
		e.cluster(c)
		e.vector(r.Auth)
		e.clusters(r.HintCols)
	}
	e.mapLen(len(m.OBs), m.OBs == nil)
	for c, r := range m.OBs {
		e.cluster(c)
		e.vector(r.Auth)
		e.vector(r.Hints)
	}
}

// payload writes one tagged payload; inner is set for an envelope's
// frames, which may not be envelopes themselves.
func (e *encoder) payload(p netsim.Payload, inner bool) error {
	switch p := p.(type) {
	case Create:
		e.u8(tagCreate)
		e.cluster(p.Creator)
		e.uvarint(p.Stamp)
		e.object(p.Obj)
		e.cluster(p.Cluster)
		e.uvarint(p.Seq)
	case RefTransfer:
		e.u8(tagRefTransfer)
		e.cluster(p.FromCluster)
		e.uvarint(p.IntroSeq)
		e.object(p.ToObj)
		e.cluster(p.ToCluster)
		e.ref(p.Target)
		e.uvarint(p.Seq)
	case Destroy:
		e.u8(tagDestroy)
		e.cluster(p.From)
		e.cluster(p.To)
		e.destroyMsg(&p.M)
		e.uvarint(p.Seq)
	case Assert:
		e.u8(tagAssert)
		e.cluster(p.From)
		e.cluster(p.To)
		e.uvarint(p.M.Stamp)
		e.cluster(p.M.Intro)
		e.uvarint(p.M.IntroSeq)
		e.uvarint(p.Seq)
	case FrameAck:
		e.u8(tagFrameAck)
		e.u8(byte(p.Stream))
		e.uvarint(p.Seq)
		e.uvarint(p.Epoch)
	case Propagate:
		e.u8(tagPropagate)
		e.cluster(p.From)
		e.cluster(p.To)
		e.propagation(&p.M)
	case Envelope:
		if inner {
			return errNestedEnvelope
		}
		e.u8(tagEnvelope)
		e.uvarint(uint64(len(p.Frames)))
		for _, f := range p.Frames {
			if err := e.payload(f, true); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("payload type %T is not a wire message", p)
	}
	return nil
}

func (e *encoder) op(op *OpRecord) {
	e.u8(byte(op.Kind))
	e.object(op.Holder)
	e.site(op.Site)
	e.cluster(op.Clu)
	e.ref(op.To)
	e.ref(op.Target)
	e.varint(op.Slot)
}

func (e *encoder) frame(f *Frame) error {
	e.u8(codecVersion)
	e.site(f.From)
	e.site(f.To)
	return e.payload(f.Payload, false)
}

// record writes rec, which has exactly one arm set (recordArity).
func (e *encoder) record(rec *WALRecord) error {
	e.u8(codecVersion)
	e.varint(rec.Shard)
	e.varint(rec.Width)
	switch {
	case rec.Op != nil:
		e.u8(recOp)
		e.op(rec.Op)
	case rec.Deliver != nil:
		e.u8(recDeliver)
		e.site(rec.Deliver.From)
		return e.payload(rec.Deliver.Payload, false)
	default:
		e.u8(recBatch)
		e.uvarint(uint64(len(rec.Batch.Ops)))
		for i := range rec.Batch.Ops {
			op := &rec.Batch.Ops[i]
			e.op(&op.Op)
			e.varint(op.HolderFrom)
			e.varint(op.ToFrom)
			e.varint(op.TargetFrom)
		}
	}
	return nil
}

// --- decoding -------------------------------------------------------------

// decoder reads values from b. The first failure sticks in err; every
// read after it returns a zero value, so callers check err once.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 || v < math.MinInt || v > math.MaxInt {
		d.fail("truncated, overlong or out-of-range varint")
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *decoder) flag() bool {
	switch b := d.u8(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bool byte %d", b)
		return false
	}
}

// stream reads a retirement stream, refusing any above the last: a site
// would keep, ack and snapshot state for it. Zero (untracked) passes.
func (d *decoder) stream() core.Stream {
	s := core.Stream(d.u8())
	if d.err == nil && s > core.StreamDestroy {
		d.fail("unknown stream %d", s)
	}
	return s
}

// count reads a slice's length.
func (d *decoder) count(size int) int { return d.fit(d.uvarint(), size) }

// mapLen reads a map's length (written len+1, 0 for a nil map); ok is
// false for a nil map.
func (d *decoder) mapLen(size int) (n int, ok bool) {
	x := d.uvarint()
	if x == 0 {
		return 0, false
	}
	n = d.fit(x-1, size)
	return n, d.err == nil
}

// fit returns n once the bytes left can hold n entries of at least size
// bytes each, so no length a value claims is allocated ahead of its
// bytes.
func (d *decoder) fit(n uint64, size int) int {
	if d.err == nil && n > uint64(len(d.b)/size) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

func (d *decoder) site() ids.SiteID {
	v := d.uvarint()
	if v > math.MaxUint32 {
		d.fail("site id %d out of range", v)
		return 0
	}
	return ids.SiteID(v)
}

func (d *decoder) cluster() ids.ClusterID {
	x := d.uvarint()
	if x>>1 > math.MaxUint32 {
		d.fail("cluster site %d out of range", x>>1)
	}
	return ids.ClusterID{Site: ids.SiteID(x >> 1), Root: x&1 == 1, Seq: d.uvarint()}
}

func (d *decoder) object() ids.ObjectID {
	return ids.ObjectID{Site: d.site(), Seq: d.uvarint()}
}

func (d *decoder) ref() heap.Ref {
	return heap.Ref{Obj: d.object(), Cluster: d.cluster()}
}

func (d *decoder) vector() vclock.Vector {
	n, ok := d.mapLen(minEntry)
	if !ok {
		return nil
	}
	v := make(vclock.Vector, n)
	for range n {
		c := d.cluster()
		s := vclock.Stamp{Seq: d.uvarint(), Eps: d.flag()}
		if _, dup := v[c]; dup {
			d.fail("vector repeats column %v", c)
		}
		if d.err != nil {
			return nil
		}
		v[c] = s
	}
	return v
}

func (d *decoder) clusters() []ids.ClusterID {
	n := d.count(minCluster)
	if n == 0 {
		return nil
	}
	cs := make([]ids.ClusterID, n)
	for i := range cs {
		cs[i] = d.cluster()
	}
	return cs
}

func (d *decoder) destroyMsg() core.DestroyMsg {
	return core.DestroyMsg{Auth: d.vector(), Hints: d.vector(), Processed: d.vector()}
}

func (d *decoder) propagation() core.Propagation {
	m := core.Propagation{Clock: d.uvarint(), Auth: d.vector(), HintCols: d.clusters()}
	if n, ok := d.mapLen(minRow); ok {
		m.Rows = make(map[ids.ClusterID]core.RowGossip, n)
		for range n {
			c := d.cluster()
			r := core.RowGossip{Auth: d.vector(), HintCols: d.clusters()}
			if _, dup := m.Rows[c]; dup {
				d.fail("propagation repeats row %v", c)
			}
			if d.err != nil {
				break
			}
			m.Rows[c] = r
		}
	}
	if n, ok := d.mapLen(minRow); ok {
		m.OBs = make(map[ids.ClusterID]core.OBGossip, n)
		for range n {
			c := d.cluster()
			r := core.OBGossip{Auth: d.vector(), Hints: d.vector()}
			if _, dup := m.OBs[c]; dup {
				d.fail("propagation repeats on-behalf row %v", c)
			}
			if d.err != nil {
				break
			}
			m.OBs[c] = r
		}
	}
	return m
}

// payload reads one tagged payload; inner is set for an envelope's
// frames.
func (d *decoder) payload(inner bool) netsim.Payload {
	switch tag := d.u8(); tag {
	case tagCreate:
		return Create{Creator: d.cluster(), Stamp: d.uvarint(), Obj: d.object(), Cluster: d.cluster(), Seq: d.uvarint()}
	case tagRefTransfer:
		return RefTransfer{FromCluster: d.cluster(), IntroSeq: d.uvarint(), ToObj: d.object(),
			ToCluster: d.cluster(), Target: d.ref(), Seq: d.uvarint()}
	case tagDestroy:
		return Destroy{From: d.cluster(), To: d.cluster(), M: d.destroyMsg(), Seq: d.uvarint()}
	case tagAssert:
		return Assert{From: d.cluster(), To: d.cluster(),
			M:   core.AssertMsg{Stamp: d.uvarint(), Intro: d.cluster(), IntroSeq: d.uvarint()},
			Seq: d.uvarint()}
	case tagFrameAck:
		return FrameAck{Stream: d.stream(), Seq: d.uvarint(), Epoch: d.uvarint()}
	case tagPropagate:
		return Propagate{From: d.cluster(), To: d.cluster(), M: d.propagation()}
	case tagEnvelope:
		if inner {
			d.fail("%v", errNestedEnvelope)
			return nil
		}
		var env Envelope
		if n := d.count(minPayload); n > 0 {
			env.Frames = make([]netsim.Payload, n)
			for i := range env.Frames {
				env.Frames[i] = d.payload(true)
			}
		}
		return env
	default:
		d.fail("unknown payload tag %d", tag)
		return nil
	}
}

func (d *decoder) op() OpRecord {
	return OpRecord{
		Kind: OpKind(d.u8()), Holder: d.object(), Site: d.site(), Clu: d.cluster(),
		To: d.ref(), Target: d.ref(), Slot: d.varint(),
	}
}

// version checks the leading codec-version byte.
func (d *decoder) version() {
	if v := d.u8(); d.err == nil && v != codecVersion {
		d.fail("codec version %d, want %d", v, codecVersion)
	}
}

// end refuses trailing bytes once a whole value has been read.
func (d *decoder) end() {
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
}

func (d *decoder) frame() Frame {
	d.version()
	f := Frame{From: d.site(), To: d.site(), Payload: d.payload(false)}
	d.end()
	return f
}

func (d *decoder) record() *WALRecord {
	d.version()
	rec := &WALRecord{Shard: d.varint(), Width: d.varint()}
	switch tag := d.u8(); tag {
	case recOp:
		op := d.op()
		rec.Op = &op
	case recDeliver:
		rec.Deliver = &DeliverRecord{From: d.site(), Payload: d.payload(false)}
	case recBatch:
		rec.Batch = &BatchRecord{}
		if n := d.count(minOp); n > 0 {
			rec.Batch.Ops = make([]BatchOp, n)
			for i := range rec.Batch.Ops {
				rec.Batch.Ops[i] = BatchOp{Op: d.op(), HolderFrom: d.varint(), ToFrom: d.varint(), TargetFrom: d.varint()}
			}
		}
	default:
		d.fail("unknown record tag %d", tag)
	}
	d.end()
	return rec
}
