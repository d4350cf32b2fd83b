package wire

import (
	"reflect"
	"testing"

	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
)

// TestEnvelopeRoundTrip: an envelope of mixed frames survives the WAL
// record codec (envelopes are journaled whole as delivery records).
func TestEnvelopeRoundTrip(t *testing.T) {
	env := Envelope{Frames: []netsim.Payload{
		Create{
			Creator: ids.ClusterID{Site: 1, Seq: 2},
			Stamp:   7,
			Obj:     ids.ObjectID{Site: 2, Seq: 9},
			Cluster: ids.ClusterID{Site: 2, Seq: 9},
			Seq:     3,
		},
		RefTransfer{
			FromCluster: ids.ClusterID{Site: 1, Seq: 2},
			IntroSeq:    4,
			ToObj:       ids.ObjectID{Site: 2, Seq: 1},
			ToCluster:   ids.ClusterID{Site: 2, Seq: 1},
			Target:      heap.Ref{Obj: ids.ObjectID{Site: 3, Seq: 5}, Cluster: ids.ClusterID{Site: 3, Seq: 5}},
			Seq:         4,
		},
		FrameAck{Stream: 1, Seq: 17, Epoch: 2},
	}}
	rec := &WALRecord{Deliver: &DeliverRecord{From: 1, Payload: env}}
	data, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Deliver == nil {
		t.Fatal("deliver record lost")
	}
	genv, ok := got.Deliver.Payload.(Envelope)
	if !ok {
		t.Fatalf("payload decoded as %T, want Envelope", got.Deliver.Payload)
	}
	if !reflect.DeepEqual(genv, env) {
		t.Fatalf("envelope mismatch:\n got %+v\nwant %+v", genv, env)
	}
}

// TestEnvelopeTrafficClass: an envelope is application traffic exactly
// when it carries a mutator frame; control-only envelopes stay
// fault-eligible like the bare frames they replace.
func TestEnvelopeTrafficClass(t *testing.T) {
	mixed := Envelope{Frames: []netsim.Payload{FrameAck{Stream: 1, Seq: 1}, Create{Seq: 1}}}
	if netsim.FaultEligible(mixed) {
		t.Fatal("envelope carrying a Create must be exempt from fault injection")
	}
	control := Envelope{Frames: []netsim.Payload{FrameAck{Stream: 1, Seq: 1}, Assert{Seq: 2}}}
	if !netsim.FaultEligible(control) {
		t.Fatal("control-only envelope must stay fault-eligible")
	}
	if got := mixed.ApproxSize(); got <= (Create{}).ApproxSize() {
		t.Fatalf("envelope size %d must exceed its content", got)
	}
	if mixed.Kind() != KindEnvelope {
		t.Fatalf("kind = %q", mixed.Kind())
	}
}

// TestBatchRecordRoundTrip: a batch WAL record with deferred argument
// indices survives the codec bit-exactly.
func TestBatchRecordRoundTrip(t *testing.T) {
	root := ids.ObjectID{Site: 1, Seq: 1}
	rec := &WALRecord{Batch: &BatchRecord{Ops: []BatchOp{
		{Op: OpRecord{Kind: OpNewLocal, Holder: root}},
		{Op: OpRecord{Kind: OpNewRemote, Site: 2}, HolderFrom: 1},
		{Op: OpRecord{Kind: OpSendRef, Holder: root}, ToFrom: 2, TargetFrom: 1},
		{Op: OpRecord{Kind: OpDropRefs, Holder: root}, TargetFrom: 2},
		{Op: OpRecord{Kind: OpClearSlot, Holder: root, Slot: 3}},
	}}}
	data, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Batch == nil {
		t.Fatal("batch record lost")
	}
	if !reflect.DeepEqual(got.Batch, rec.Batch) {
		t.Fatalf("batch mismatch:\n got %+v\nwant %+v", got.Batch, rec.Batch)
	}
}

// TestRecordArity: a record must set exactly one of Op, Deliver and
// Batch — on encode and on decode.
func TestRecordArity(t *testing.T) {
	bad := []*WALRecord{
		{},
		{Op: &OpRecord{Kind: OpCollect}, Batch: &BatchRecord{}},
		{Deliver: &DeliverRecord{From: 1, Payload: Create{}}, Batch: &BatchRecord{}},
		{Op: &OpRecord{Kind: OpCollect}, Deliver: &DeliverRecord{From: 1, Payload: Create{}}, Batch: &BatchRecord{}},
	}
	for i, rec := range bad {
		if _, err := EncodeRecord(rec); err == nil {
			t.Fatalf("case %d: encode accepted arity %d", i, recordArity(rec))
		}
	}
	good := &WALRecord{Batch: &BatchRecord{Ops: []BatchOp{{Op: OpRecord{Kind: OpNewLocal}}}}}
	if _, err := EncodeRecord(good); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotV10Pinned: the shard-partitioned layout that was gob's
// v10 (every retained frame in ShardState.Retained) is encoded under
// the codec version every frame and record carries — the only version
// that decodes (TestDecodeSnapshotRejectsOtherVersions) — re-encoded
// images round-trip, and re-send state is always bare frames, never
// envelopes.
func TestSnapshotV10Pinned(t *testing.T) {
	img := sampleImage()
	data, err := EncodeSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != codecVersion {
		t.Fatalf("snapshot opens with %d, want the codec version %d", data[0], codecVersion)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Site != img.Site || got.Mint != img.Mint {
		t.Fatalf("image mismatch: got site=%v mint=%d", got.Site, got.Mint)
	}
	for _, ss := range got.Shards {
		for _, f := range ss.Retained {
			if _, ok := f.Payload.(Envelope); ok {
				t.Fatal("a shard must never retain envelopes")
			}
		}
	}
}

// TestDecodeRecordRejectsGarbage keeps the error path loud.
func TestDecodeRecordRejectsGarbage(t *testing.T) {
	if _, err := DecodeRecord([]byte("not gob")); err == nil {
		t.Fatal("garbage decoded")
	}
}
