// The binary format of frames, WAL records and snapshots: the bytes
// behind codec.go's Encode and Decode pairs.
//
// Every value opens with codecVersion. A frame follows with From, To
// and one payload; a record with Shard, Width, one record tag (Op,
// Deliver, Batch) and that arm's body; a snapshot with the SiteImage,
// whose structs are their fields in declaration order. A payload is one
// tag byte and its fields in declaration order; an Envelope's body is a
// count and that many tagged payloads, none of them an Envelope.
// Unsigned integers, ids, sequences and stamps are uvarints; the signed
// Shard, Width, Slot and *From fields zigzag varints; bools and the
// one-byte enums (OpKind, core.Stream) one byte. A ClusterID is
// uvarint(Site<<1 | Root) then uvarint(Seq). Every map is keyed by
// cluster and is uvarint(len+1), 0 for a nil map, followed by its
// entries in map order: gob kept an empty map apart from a nil one, and
// the decoded values stay exactly what gob's were. A slice is a uvarint
// count and its entries; an empty one decodes as nil, as gob's did.
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

// codecVersion leads every encoded frame, record and snapshot. No gob
// stream starts with this byte (gob opens with the length of a type
// definition), so a gob-era journal or snapshot is refused by version,
// not misparsed. Version 2 dropped Destroy's finalisation-stream flag, so a
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
// the bytes left: each sums its fields' minima, one byte for an
// integer, a bool, an enum, a count or a map length and two for an id.
const (
	minID      = 2                                       // a cluster or object id: two uvarints
	minEntry   = minID + 2                               // a vector entry: key, stamp (uvarint + bool)
	minRow     = minID + 2                               // a row-map entry: key, two fields
	minPayload = 3                                       // a tag and at least two one-byte fields
	minOp      = 1 + minID + 1 + minID + 4*minID + 1 + 3 // a batch op: an OpRecord, three varints
	minSend    = 3                                       // a send stream: peer, stream, sequence
	minRecv    = 4                                       // a receive stream: peer, stream, watermark, list
	minShard   = 1 + 2*minID + 2 + 2 + 2 + 1             // a shard: heap (site, ids, counters, lists), engine, list
	minObjImg  = 2*minID + 1                             // an object: id, cluster, slots
	minCluImg  = minID + 2                               // a cluster: id, entries, removed
	minProc    = minID + 4 + 5                           // a process: id, clock, two bools, list; log of five
	minFrame   = 1 + minPayload + 1                      // a retained frame: site, payload, sequence
	minKeyed   = minID + 1                               // a tombstone or hint-map entry
	minLogRow  = minID + 3                               // a log's vector or on-behalf row entry
)

var errNestedEnvelope = errors.New("an Envelope never nests another Envelope")

// --- encoding -------------------------------------------------------------

// encoder appends the binary form of values to b. A payload it cannot
// encode sets err, which its callers check once, as a decoder's do.
type encoder struct {
	b   []byte
	err error
}

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

// each writes a slice: its count, then put for every entry.
func each[T any](e *encoder, s []T, put func(T)) {
	e.uvarint(uint64(len(s)))
	for _, v := range s {
		put(v)
	}
}

// byCluster writes a cluster-keyed map: its length as len+1 (0 for a
// nil map), then every key and put for its value, in map order.
func byCluster[V any](e *encoder, m map[ids.ClusterID]V, put func(V)) {
	if m == nil {
		e.uvarint(0)
		return
	}
	e.uvarint(uint64(len(m)) + 1)
	for c, v := range m {
		e.cluster(c)
		put(v)
	}
}

// vector is byCluster written out: an indirect call per stamp slows a
// propagation's encoding measurably.
func (e *encoder) vector(v vclock.Vector) {
	if v == nil {
		e.uvarint(0)
		return
	}
	e.uvarint(uint64(len(v)) + 1)
	for c, s := range v {
		e.cluster(c)
		e.uvarint(s.Seq)
		e.flag(s.Eps)
	}
}

func (e *encoder) clusters(cs []ids.ClusterID) { each(e, cs, e.cluster) }

func (e *encoder) destroyMsg(m *core.DestroyMsg) {
	e.vector(m.Auth)
	e.vector(m.Hints)
	e.vector(m.Processed)
}

func (e *encoder) propagation(m *core.Propagation) {
	e.uvarint(m.Clock)
	e.vector(m.Auth)
	e.clusters(m.HintCols)
	byCluster(e, m.Rows, func(r core.RowGossip) {
		e.vector(r.Auth)
		e.clusters(r.HintCols)
	})
	byCluster(e, m.OBs, func(r core.OBGossip) {
		e.vector(r.Auth)
		e.vector(r.Hints)
	})
}

// payload writes one tagged payload; inner is set for an envelope's
// frames, which may not be envelopes themselves.
func (e *encoder) payload(p netsim.Payload, inner bool) {
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
			e.err = errNestedEnvelope
			return
		}
		e.u8(tagEnvelope)
		each(e, p.Frames, func(f netsim.Payload) { e.payload(f, true) })
	default:
		e.err = fmt.Errorf("payload type %T is not a wire message", p)
	}
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

func (e *encoder) frame(f *Frame) {
	e.u8(codecVersion)
	e.site(f.From)
	e.site(f.To)
	e.payload(f.Payload, false)
}

// record writes rec, which has exactly one arm set (recordArity).
func (e *encoder) record(rec *WALRecord) {
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
		e.payload(rec.Deliver.Payload, false)
	default:
		e.u8(recBatch)
		// Written out, not through each: copying every op into each's
		// callback slows a batch-64 encode measurably.
		e.uvarint(uint64(len(rec.Batch.Ops)))
		for i := range rec.Batch.Ops {
			op := &rec.Batch.Ops[i]
			e.op(&op.Op)
			e.varint(op.HolderFrom)
			e.varint(op.ToFrom)
			e.varint(op.TargetFrom)
		}
	}
}

func (e *encoder) image(img *SiteImage) {
	e.u8(codecVersion)
	e.site(img.Site)
	e.uvarint(img.Mint)
	e.uvarint(img.Epoch)
	each(e, img.SendStreams, func(s SendStreamImage) {
		e.site(s.Peer)
		e.u8(byte(s.Kind))
		e.uvarint(s.NextSeq)
	})
	each(e, img.RecvStreams, func(s RecvStreamImage) {
		e.site(s.Peer)
		e.u8(byte(s.Kind))
		e.uvarint(s.Watermark)
		each(e, s.Pending, e.uvarint)
	})
	e.uvarint(img.PlaceRR)
	each(e, img.Shards, func(s ShardState) {
		e.heap(&s.Heap)
		e.engine(&s.Engine)
		each(e, s.Retained, func(f FrameImage) {
			e.site(f.To)
			e.payload(f.Payload, false)
			e.uvarint(f.Seq)
		})
	})
}

func (e *encoder) heap(h *heap.Image) {
	e.site(h.Site)
	e.cluster(h.RootCluster)
	e.object(h.RootObject)
	e.uvarint(h.NextObj)
	e.uvarint(h.NextClu)
	each(e, h.Objects, func(o heap.ObjectImage) {
		e.object(o.ID)
		e.cluster(o.Cluster)
		each(e, o.Slots, e.ref)
	})
	each(e, h.Clusters, func(c heap.ClusterImage) {
		e.cluster(c.ID)
		each(e, c.Entries, e.object)
		e.flag(c.Removed)
	})
}

func (e *encoder) engine(g *core.EngineImage) {
	each(e, g.Procs, func(p core.ProcImage) {
		e.cluster(p.ID)
		e.uvarint(p.Clock)
		e.flag(p.Active)
		e.flag(p.Born)
		e.clusters(p.Acq)
		e.log(&p.Log)
	})
	byCluster(e, g.Tombstones, e.uvarint)
}

func (e *encoder) log(l *vclock.LogImage) {
	e.vector(l.Own)
	byCluster(e, l.HintPending, e.vector)
	byCluster(e, l.HintCleared, e.vector)
	byCluster(e, l.VRows, func(r vclock.VRowImage) {
		e.vector(r.Auth)
		e.clusters(r.HintCols)
		e.flag(r.Confirmed)
	})
	byCluster(e, l.OBs, func(r vclock.OBImage) {
		e.vector(r.Auth)
		e.vector(r.Hints)
		e.vector(r.Processed)
	})
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

// list reads a slice written by each, whose entries take at least size
// bytes, calling get for every entry. An empty slice decodes as nil.
func list[T any](d *decoder, size int, get func() T) []T {
	n := d.fit(d.uvarint(), size)
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = get()
	}
	return s
}

// clusterMap reads a map written by byCluster, whose entries (key
// included) take at least size bytes, calling get for every value. A
// repeated key is an error.
func clusterMap[V any](d *decoder, size int, get func() V) map[ids.ClusterID]V {
	x := d.uvarint()
	if x == 0 {
		return nil
	}
	n := d.fit(x-1, size)
	m := make(map[ids.ClusterID]V, n)
	for range n {
		c, v := d.cluster(), get()
		if _, dup := m[c]; dup {
			d.fail("map repeats key %v", c)
		}
		if d.err != nil {
			return nil
		}
		m[c] = v
	}
	return m
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
	return clusterMap(d, minEntry, func() vclock.Stamp { return vclock.Stamp{Seq: d.uvarint(), Eps: d.flag()} })
}

func (d *decoder) clusters() []ids.ClusterID { return list(d, minID, d.cluster) }

func (d *decoder) destroyMsg() core.DestroyMsg {
	return core.DestroyMsg{Auth: d.vector(), Hints: d.vector(), Processed: d.vector()}
}

func (d *decoder) propagation() core.Propagation {
	return core.Propagation{
		Clock: d.uvarint(), Auth: d.vector(), HintCols: d.clusters(),
		Rows: clusterMap(d, minRow, func() core.RowGossip {
			return core.RowGossip{Auth: d.vector(), HintCols: d.clusters()}
		}),
		OBs: clusterMap(d, minRow, func() core.OBGossip {
			return core.OBGossip{Auth: d.vector(), Hints: d.vector()}
		}),
	}
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
		return Envelope{Frames: list(d, minPayload, func() netsim.Payload { return d.payload(true) })}
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
		// Written out, not through list, for the encoder's reason.
		rec.Batch = &BatchRecord{}
		if n := d.fit(d.uvarint(), minOp); n > 0 {
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

func (d *decoder) image() *SiteImage {
	d.version()
	img := &SiteImage{
		Site: d.site(), Mint: d.uvarint(), Epoch: d.uvarint(),
		SendStreams: list(d, minSend, func() SendStreamImage {
			return SendStreamImage{Peer: d.site(), Kind: d.stream(), NextSeq: d.uvarint()}
		}),
		RecvStreams: list(d, minRecv, func() RecvStreamImage {
			return RecvStreamImage{Peer: d.site(), Kind: d.stream(), Watermark: d.uvarint(), Pending: list(d, 1, d.uvarint)}
		}),
		PlaceRR: d.uvarint(),
		Shards: list(d, minShard, func() ShardState {
			return ShardState{Heap: d.heap(), Engine: d.engine(), Retained: list(d, minFrame, func() FrameImage {
				return FrameImage{To: d.site(), Payload: d.payload(false), Seq: d.uvarint()}
			})}
		}),
	}
	d.end()
	return img
}

func (d *decoder) heap() heap.Image {
	return heap.Image{
		Site: d.site(), RootCluster: d.cluster(), RootObject: d.object(), NextObj: d.uvarint(), NextClu: d.uvarint(),
		Objects: list(d, minObjImg, func() heap.ObjectImage {
			return heap.ObjectImage{ID: d.object(), Cluster: d.cluster(), Slots: list(d, 2*minID, d.ref)}
		}),
		Clusters: list(d, minCluImg, func() heap.ClusterImage {
			return heap.ClusterImage{ID: d.cluster(), Entries: list(d, minID, d.object), Removed: d.flag()}
		}),
	}
}

func (d *decoder) engine() core.EngineImage {
	return core.EngineImage{
		Procs: list(d, minProc, func() core.ProcImage {
			return core.ProcImage{ID: d.cluster(), Clock: d.uvarint(), Active: d.flag(), Born: d.flag(),
				Acq: d.clusters(), Log: d.log()}
		}),
		Tombstones: clusterMap(d, minKeyed, d.uvarint),
	}
}

func (d *decoder) log() vclock.LogImage {
	return vclock.LogImage{
		Own:         d.vector(),
		HintPending: clusterMap(d, minKeyed, d.vector),
		HintCleared: clusterMap(d, minKeyed, d.vector),
		VRows: clusterMap(d, minLogRow, func() vclock.VRowImage {
			return vclock.VRowImage{Auth: d.vector(), HintCols: d.clusters(), Confirmed: d.flag()}
		}),
		OBs: clusterMap(d, minLogRow, func() vclock.OBImage {
			return vclock.OBImage{Auth: d.vector(), Hints: d.vector(), Processed: d.vector()}
		}),
	}
}
