package wire

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/vclock"
)

// gen draws seeded wire values that reach every corner of the format:
// zero, small and max-uint64 integers, root clusters, Ē stamps, nil and
// empty vectors, negative signed fields, envelopes of mixed kinds, and
// site images with unborn processes and nil and empty maps and slices.
type gen struct{ r *rand.Rand }

func (g gen) bool() bool { return g.r.Intn(2) == 0 }

// slice draws a nil slice, an empty one or one to three entries.
func slice[T any](g gen, draw func() T) []T {
	switch g.r.Intn(4) {
	case 0:
		return nil
	case 1:
		return []T{}
	}
	s := make([]T, 1+g.r.Intn(3))
	for i := range s {
		s[i] = draw()
	}
	return s
}

// keyed draws a nil cluster-keyed map, an empty one or one to three
// entries.
func keyed[V any](g gen, draw func() V) map[ids.ClusterID]V {
	switch g.r.Intn(4) {
	case 0:
		return nil
	case 1:
		return map[ids.ClusterID]V{}
	}
	m := map[ids.ClusterID]V{}
	for range 1 + g.r.Intn(3) {
		m[g.cluster()] = draw()
	}
	return m
}

func (g gen) u64() uint64 {
	switch g.r.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.MaxUint64
	case 2:
		return g.r.Uint64()
	default:
		return uint64(g.r.Intn(300))
	}
}

func (g gen) int() int {
	switch g.r.Intn(5) {
	case 0:
		return 0
	case 1:
		return math.MinInt
	case 2:
		return math.MaxInt
	default:
		return g.r.Intn(200) - 100
	}
}

func (g gen) site() ids.SiteID {
	if g.r.Intn(8) == 0 {
		return math.MaxUint32
	}
	return ids.SiteID(g.r.Intn(6))
}

func (g gen) cluster() ids.ClusterID {
	return ids.ClusterID{Site: g.site(), Seq: g.u64(), Root: g.r.Intn(4) == 0}
}

func (g gen) object() ids.ObjectID { return ids.ObjectID{Site: g.site(), Seq: g.u64()} }

func (g gen) ref() heap.Ref { return heap.Ref{Obj: g.object(), Cluster: g.cluster()} }

func (g gen) vector() vclock.Vector {
	switch g.r.Intn(4) {
	case 0:
		return nil
	case 1:
		return vclock.Vector{}
	}
	v := vclock.Vector{}
	for range 1 + g.r.Intn(4) {
		v[g.cluster()] = vclock.Stamp{Seq: g.u64(), Eps: g.r.Intn(2) == 0}
	}
	return v
}

func (g gen) clusters() []ids.ClusterID { return slice(g, g.cluster) }

// stream draws one of the retirement streams: the decoder refuses any
// other byte.
func (g gen) stream() core.Stream {
	return core.StreamMut + core.Stream(g.r.Intn(int(core.StreamDestroy)))
}

// payloadKinds is the number of payload kinds payloadOf draws from.
const payloadKinds = 7

// payloadOf draws a payload of the given kind (0..payloadKinds-1; the
// last is Envelope, whose frames are of the other kinds).
func (g gen) payloadOf(kind int) netsim.Payload {
	switch kind {
	case 0:
		return Create{Creator: g.cluster(), Stamp: g.u64(), Obj: g.object(), Cluster: g.cluster(), Seq: g.u64()}
	case 1:
		return RefTransfer{FromCluster: g.cluster(), IntroSeq: g.u64(), ToObj: g.object(),
			ToCluster: g.cluster(), Target: g.ref(), Seq: g.u64()}
	case 2:
		return Destroy{From: g.cluster(), To: g.cluster(),
			M:   core.DestroyMsg{Auth: g.vector(), Hints: g.vector(), Processed: g.vector()},
			Seq: g.u64()}
	case 3:
		return Assert{From: g.cluster(), To: g.cluster(),
			M:   core.AssertMsg{Stamp: g.u64(), Intro: g.cluster(), IntroSeq: g.u64()},
			Seq: g.u64()}
	case 4:
		return FrameAck{Stream: g.stream(), Seq: g.u64(), Epoch: g.u64()}
	case 5:
		m := core.Propagation{Clock: g.u64(), Auth: g.vector(), HintCols: g.clusters()}
		// n < 0 leaves a row map nil; 0 makes it empty.
		if n := g.r.Intn(5) - 1; n >= 0 {
			m.Rows = map[ids.ClusterID]core.RowGossip{}
			for range n {
				m.Rows[g.cluster()] = core.RowGossip{Auth: g.vector(), HintCols: g.clusters()}
			}
		}
		if n := g.r.Intn(5) - 1; n >= 0 {
			m.OBs = map[ids.ClusterID]core.OBGossip{}
			for range n {
				m.OBs[g.cluster()] = core.OBGossip{Auth: g.vector(), Hints: g.vector()}
			}
		}
		return Propagate{From: g.cluster(), To: g.cluster(), M: m}
	default:
		var env Envelope
		switch n := g.r.Intn(6); n {
		case 0:
		case 1:
			env.Frames = []netsim.Payload{}
		default:
			for range n {
				env.Frames = append(env.Frames, g.payloadOf(g.r.Intn(payloadKinds-1)))
			}
		}
		return env
	}
}

func (g gen) op() OpRecord {
	return OpRecord{
		Kind: OpKind(1 + g.r.Intn(int(OpRefresh))), Holder: g.object(), Site: g.site(), Clu: g.cluster(),
		To: g.ref(), Target: g.ref(), Slot: g.int(),
	}
}

// recordKinds is the number of WALRecord arms recordOf draws from.
const recordKinds = 3

// recordOf draws a record of the given arm: 0 Op, 1 Deliver, 2 Batch.
func (g gen) recordOf(kind int) *WALRecord {
	rec := &WALRecord{Shard: g.int(), Width: g.int()}
	switch kind {
	case 0:
		op := g.op()
		rec.Op = &op
	case 1:
		rec.Deliver = &DeliverRecord{From: g.site(), Payload: g.payloadOf(g.r.Intn(payloadKinds))}
	default:
		rec.Batch = &BatchRecord{Ops: make([]BatchOp, 1+g.r.Intn(5))}
		for i := range rec.Batch.Ops {
			rec.Batch.Ops[i] = BatchOp{Op: g.op(), HolderFrom: g.int(), ToFrom: g.int(), TargetFrom: g.int()}
		}
	}
	return rec
}

// image draws a site image of one to three shards whose retained
// frames are of every payload kind. A log's hint vectors are never nil:
// Export clones each one, and gob would make a nil one empty.
func (g gen) image() *SiteImage {
	hints := func() vclock.Vector {
		if v := g.vector(); v != nil {
			return v
		}
		return vclock.Vector{}
	}
	shard := func() ShardState {
		return ShardState{
			Heap: heap.Image{
				Site: g.site(), RootCluster: g.cluster(), RootObject: g.object(), NextObj: g.u64(), NextClu: g.u64(),
				Objects: slice(g, func() heap.ObjectImage {
					return heap.ObjectImage{ID: g.object(), Cluster: g.cluster(), Slots: slice(g, g.ref)}
				}),
				Clusters: slice(g, func() heap.ClusterImage {
					return heap.ClusterImage{ID: g.cluster(), Entries: slice(g, g.object), Removed: g.bool()}
				}),
			},
			Engine: core.EngineImage{
				Procs: slice(g, func() core.ProcImage {
					return core.ProcImage{ID: g.cluster(), Clock: g.u64(), Active: g.bool(), Born: g.bool(), Acq: g.clusters(),
						Log: vclock.LogImage{
							Own: g.vector(), HintPending: keyed(g, hints), HintCleared: keyed(g, hints),
							VRows: keyed(g, func() vclock.VRowImage {
								return vclock.VRowImage{Auth: g.vector(), HintCols: g.clusters(), Confirmed: g.bool()}
							}),
							OBs: keyed(g, func() vclock.OBImage {
								return vclock.OBImage{Auth: g.vector(), Hints: g.vector(), Processed: g.vector()}
							}),
						}}
				}),
				Tombstones: keyed(g, g.u64),
			},
			Retained: slice(g, func() FrameImage {
				return FrameImage{To: g.site(), Payload: g.payloadOf(g.r.Intn(payloadKinds)), Seq: g.u64()}
			}),
		}
	}
	img := &SiteImage{Site: g.site(), Mint: g.u64(), Epoch: g.u64(), PlaceRR: g.u64(),
		SendStreams: slice(g, func() SendStreamImage {
			return SendStreamImage{Peer: g.site(), Kind: g.stream(), NextSeq: g.u64()}
		}),
		RecvStreams: slice(g, func() RecvStreamImage {
			return RecvStreamImage{Peer: g.site(), Kind: g.stream(), Watermark: g.u64(), Pending: slice(g, g.u64)}
		}),
	}
	for range 1 + g.r.Intn(3) {
		img.Shards = append(img.Shards, shard())
	}
	return img
}

// gobEncode is v in gob, which must know the payload types behind an
// image's retained frames (registering one twice is harmless).
func gobEncode(t *testing.T, v any) []byte {
	t.Helper()
	for _, p := range []netsim.Payload{
		Create{}, RefTransfer{}, Destroy{}, Assert{},
		FrameAck{}, Propagate{}, Envelope{},
	} {
		gob.Register(p)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// gobRoundTrip is what the gob codec made of v: the oracle the binary
// codec must agree with.
func gobRoundTrip[T any](t *testing.T, v *T) *T {
	t.Helper()
	var out T
	if err := gob.NewDecoder(bytes.NewReader(gobEncode(t, v))).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func frameRoundTrip(t *testing.T, f *Frame) Frame {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func recordRoundTrip(t *testing.T, rec *WALRecord) *WALRecord {
	t.Helper()
	data, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func imageRoundTrip(t *testing.T, img *SiteImage) *SiteImage {
	t.Helper()
	data, err := EncodeSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// edgeRecords pin the corners the generator reaches only by chance: Ē
// stamps in a destroy's vectors, the largest site and sequence, a root
// cluster, an empty (not nil) vector and row, negative signed fields,
// and an envelope mixing mutator and control frames.
func edgeRecords() []*WALRecord {
	root := ids.ClusterID{Site: math.MaxUint32, Seq: math.MaxUint64, Root: true}
	ebar := vclock.Vector{root: vclock.Eps(math.MaxUint64), {Site: 1, Seq: 2}: vclock.Eps(1)}
	env := Envelope{Frames: []netsim.Payload{
		Create{Creator: root, Stamp: math.MaxUint64, Seq: math.MaxUint64},
		Destroy{From: root, M: core.DestroyMsg{Auth: ebar, Hints: vclock.Vector{}, Processed: ebar}},
		FrameAck{Stream: core.StreamDestroy, Seq: math.MaxUint64, Epoch: 1},
		Propagate{M: core.Propagation{Rows: map[ids.ClusterID]core.RowGossip{root: {}}}},
	}}
	return []*WALRecord{
		{Deliver: &DeliverRecord{From: math.MaxUint32, Payload: env}},
		{Op: &OpRecord{Kind: OpClearSlot, Slot: -3}, Shard: -1, Width: math.MaxInt},
		{Batch: &BatchRecord{Ops: []BatchOp{{Op: OpRecord{Kind: OpNewLocal, Slot: -1}, HolderFrom: -7}}}},
	}
}

// TestCodecMatchesGob: gob is the specification of the binary codec.
// For the edge records, 1 000 seeded values of every payload kind (as
// frames) and every WAL record arm, and the sample image and 300
// seeded ones, the binary round trip equals the gob round trip: an
// empty map comes back empty and a nil one nil, an empty slice nil —
// what gob made of them.
func TestCodecMatchesGob(t *testing.T) {
	for i, rec := range edgeRecords() {
		want := gobRoundTrip(t, rec)
		if got := recordRoundTrip(t, rec); !reflect.DeepEqual(got, want) {
			t.Fatalf("edge record %d:\n binary %#v\n    gob %#v", i, got, want)
		}
	}
	g := gen{rand.New(rand.NewSource(1))}
	const n = 1000
	for kind := range payloadKinds {
		for i := range n {
			f := &Frame{From: g.site(), To: g.site(), Payload: g.payloadOf(kind)}
			want := gobRoundTrip(t, f)
			if got := frameRoundTrip(t, f); !reflect.DeepEqual(got, *want) {
				t.Fatalf("%T #%d:\n binary %#v\n    gob %#v", f.Payload, i, got, *want)
			}
		}
	}
	for kind := range recordKinds {
		for i := range n {
			rec := g.recordOf(kind)
			want := gobRoundTrip(t, rec)
			if got := recordRoundTrip(t, rec); !reflect.DeepEqual(got, want) {
				t.Fatalf("record arm %d #%d:\n binary %#v\n    gob %#v", kind, i, got, want)
			}
		}
	}
	imgs := []*SiteImage{sampleImage()}
	for range 300 {
		imgs = append(imgs, g.image())
	}
	for i, img := range imgs {
		want := gobRoundTrip(t, img)
		if got := imageRoundTrip(t, img); !reflect.DeepEqual(got, want) {
			t.Fatalf("image #%d:\n binary %#v\n    gob %#v", i, got, want)
		}
	}
}

// foreign is a payload type the wire package does not define.
type foreign struct{}

func (foreign) Kind() string    { return "foreign" }
func (foreign) ApproxSize() int { return 1 }

// TestCodecRefusesMalformed: the payload set is closed and every
// malformed input is an error — an unknown version (the retired v1
// included), tag or stream (the retired legacy stream 4, 255), a nested
// envelope, a count larger than the bytes left, a non-0/1 bool, a
// truncated value, trailing bytes.
func TestCodecRefusesMalformed(t *testing.T) {
	for _, f := range []*Frame{
		{Payload: foreign{}},
		{Payload: nil},
		{Payload: Envelope{Frames: []netsim.Payload{Envelope{}}}},
		{Payload: Envelope{Frames: []netsim.Payload{FrameAck{}, foreign{}}}},
	} {
		if err := EncodeFrame(&bytes.Buffer{}, f); err == nil {
			t.Errorf("encoded %#v", f.Payload)
		}
	}
	if _, err := EncodeRecord(&WALRecord{Deliver: &DeliverRecord{Payload: foreign{}}}); err == nil {
		t.Error("encoded a record with a foreign payload")
	}

	var buf bytes.Buffer
	// One Ē stamp: byte 8 is the Auth count and byte 12 the stamp's Eps.
	auth := vclock.Vector{{Site: 1}: vclock.Eps(1)}
	if err := EncodeFrame(&buf, &Frame{From: 1, To: 2, Payload: Destroy{M: core.DestroyMsg{Auth: auth}}}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"version":  {mutate(func(b []byte) []byte { b[0] = codecVersion + 1; return b }), "codec version"},
		"v1":       {mutate(func(b []byte) []byte { b[0] = 1; return b }), "codec version 1, want 4"},
		"v2":       {mutate(func(b []byte) []byte { b[0] = 2; return b }), "codec version 2, want 4"},
		"v3":       {mutate(func(b []byte) []byte { b[0] = 3; return b }), "codec version 3, want 4"},
		"tag":      {mutate(func(b []byte) []byte { b[3] = 99; return b }), "unknown payload tag 99"},
		"bool":     {mutate(func(b []byte) []byte { b[12] = 2; return b }), "bool byte 2"},
		"count":    {mutate(func(b []byte) []byte { b[8] = 100; return b }), "exceeds"},
		"trailing": {append(mutate(func(b []byte) []byte { return b }), 0), "trailing"},
		"short":    {good[:len(good)-1], "truncated"},
		"nested":   {[]byte{codecVersion, 1, 2, tagEnvelope, 1, tagEnvelope, 0, 0, 0}, "nests"},
		"empty":    {nil, "truncated"},
		"ack4":     {[]byte{codecVersion, 1, 2, tagFrameAck, 4, 1, 1}, "unknown stream 4"},
		"ack255":   {[]byte{codecVersion, 1, 2, tagFrameAck, 255, 1, 1}, "unknown stream 255"},
	} {
		_, err := DecodeFrame(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
	if _, err := DecodeRecord([]byte{codecVersion, 0, 0, 9}); err == nil || !strings.Contains(err.Error(), "unknown record tag 9") {
		t.Errorf("record tag: err = %v", err)
	}
	rec, err := EncodeRecord(&WALRecord{Op: &OpRecord{Kind: OpCollect}})
	if err != nil {
		t.Fatal(err)
	}
	rec[0] = 1
	if _, err := DecodeRecord(rec); err == nil || !strings.Contains(err.Error(), "codec version 1, want 4") {
		t.Errorf("v1 record: err = %v", err)
	}
}

// seedFrames and seedRecords are the fuzz corpora: the values of the
// round-trip tests plus a spread of generated ones.
func seedFrames() []*Frame {
	g := gen{rand.New(rand.NewSource(2))}
	var fs []*Frame
	for i := range 24 {
		fs = append(fs, &Frame{From: g.site(), To: g.site(), Payload: g.payloadOf(i % payloadKinds)})
	}
	return fs
}

func seedRecords() []*WALRecord {
	cl2 := ids.ClusterID{Site: 2, Seq: 7}
	recs := append(edgeRecords(),
		&WALRecord{Op: &OpRecord{Kind: OpCollect}},
		&WALRecord{Op: &OpRecord{Kind: OpClearSlot, Holder: ids.ObjectID{Site: 1, Seq: 1}, Slot: 3}},
		&WALRecord{Deliver: &DeliverRecord{From: 3, Payload: Assert{From: ids.ClusterID{Site: 3, Seq: 2}, To: cl2, M: coreAssert()}}},
		&WALRecord{Batch: &BatchRecord{Ops: []BatchOp{
			{Op: OpRecord{Kind: OpNewLocal, Holder: ids.ObjectID{Site: 1, Seq: 1}}},
			{Op: OpRecord{Kind: OpNewRemote, Site: 2}, HolderFrom: 1},
			{Op: OpRecord{Kind: OpSendRef}, ToFrom: 2, TargetFrom: 1},
		}}},
	)
	g := gen{rand.New(rand.NewSource(3))}
	for kind := range recordKinds {
		for range 4 {
			recs = append(recs, g.recordOf(kind))
		}
	}
	return recs
}

// FuzzDecodeFrame: no input panics the frame decoder, and whatever
// decodes re-encodes and decodes to an equal frame.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range seedFrames() {
		var buf bytes.Buffer
		if err := EncodeFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if again := frameRoundTrip(t, &fr); !reflect.DeepEqual(again, fr) {
			t.Fatalf("re-decoded %#v, want %#v", again, fr)
		}
	})
}

// FuzzDecodeSnapshot: no input panics the snapshot decoder, and
// whatever decodes re-encodes and decodes to an equal image. The seeds
// are the sample image, every truncation of it, and generated images.
func FuzzDecodeSnapshot(f *testing.F) {
	data, err := EncodeSnapshot(sampleImage())
	if err != nil {
		f.Fatal(err)
	}
	for n := range len(data) + 1 {
		f.Add(data[:n])
	}
	g := gen{rand.New(rand.NewSource(4))}
	for range 8 {
		data, err := EncodeSnapshot(g.image())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if again := imageRoundTrip(t, img); !reflect.DeepEqual(again, img) {
			t.Fatalf("re-decoded %#v, want %#v", again, img)
		}
	})
}

// FuzzDecodeRecord: no input panics the record decoder, and whatever
// decodes re-encodes and decodes to an equal record.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range seedRecords() {
		data, err := EncodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		if again := recordRoundTrip(t, rec); !reflect.DeepEqual(again, rec) {
			t.Fatalf("re-decoded %#v, want %#v", again, rec)
		}
	})
}
