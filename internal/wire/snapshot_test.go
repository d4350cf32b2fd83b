package wire

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/vclock"
)

func sampleImage() *SiteImage {
	cl2 := ids.ClusterID{Site: 2, Seq: 7}
	cl3 := ids.ClusterID{Site: 3, Seq: 9}
	root := ids.ClusterID{Site: 2, Seq: 1, Root: true}
	obj := ids.ObjectID{Site: 2, Seq: 4}
	shard0 := ShardState{
		Heap: heap.Image{
			Site:        2,
			RootCluster: root,
			RootObject:  ids.ObjectID{Site: 2, Seq: 1},
			NextObj:     5,
			NextClu:     8,
			Objects: []ObjectImageAlias{
				{ID: ids.ObjectID{Site: 2, Seq: 1}, Cluster: root},
				{ID: obj, Cluster: cl2, Slots: []heap.Ref{{Obj: ids.ObjectID{Site: 3, Seq: 2}, Cluster: cl3}}},
			},
			Clusters: []heap.ClusterImage{
				{ID: root, Entries: []ids.ObjectID{{Site: 2, Seq: 1}}},
				{ID: cl2, Entries: []ids.ObjectID{obj}, Removed: false},
			},
		},
		Engine: core.EngineImage{
			Procs: []core.ProcImage{{
				ID:     cl2,
				Clock:  17,
				Active: true,
				Born:   true,
				Acq:    []ids.ClusterID{cl3},
				Log: vclock.LogImage{
					Own:         vclock.Vector{root: vclock.At(3), cl3: vclock.Eps(5)},
					HintPending: map[ids.ClusterID]vclock.Vector{cl3: {root: vclock.At(2)}},
					HintCleared: map[ids.ClusterID]vclock.Vector{cl3: {root: vclock.At(1)}},
					VRows: map[ids.ClusterID]vclock.VRowImage{
						cl3: {Auth: vclock.Vector{cl2: vclock.At(9)}, HintCols: []ids.ClusterID{root}, Confirmed: true},
					},
					OBs: map[ids.ClusterID]vclock.OBImage{
						cl3: {Auth: vclock.Vector{cl2: vclock.At(9)}, Hints: vclock.Vector{root: vclock.At(4)}, Processed: vclock.Vector{root: vclock.At(2)}},
					},
				},
			}, {
				// An unborn process: a destroy that outran its creation.
				ID:     ids.ClusterID{Site: 2, Seq: 9},
				Clock:  1,
				Active: true,
				Log:    vclock.LogImage{Own: vclock.Vector{cl3: vclock.Eps(6)}},
			}},
			Tombstones: map[ids.ClusterID]uint64{{Site: 2, Seq: 3}: 21},
		},
		Retained: []FrameImage{
			{To: 3, Seq: 1, Payload: Create{Creator: cl2, Stamp: 17, Obj: ids.ObjectID{Site: 3, Seq: 40}, Cluster: ids.ClusterID{Site: 3, Seq: 40}, Seq: 1}},
			{To: 3, Seq: 2, Payload: RefTransfer{FromCluster: cl2, IntroSeq: 12, ToObj: ids.ObjectID{Site: 3, Seq: 2}, ToCluster: cl3, Target: heap.Ref{Obj: obj, Cluster: cl2}, Seq: 2}},
			// A positive and a negative assert.
			{To: 3, Seq: 6, Payload: Assert{From: cl2, To: cl3, M: core.AssertMsg{Stamp: 16, Intro: root, IntroSeq: 11}, Seq: 6}},
			{To: 3, Seq: 7, Payload: Assert{From: ids.ClusterID{Site: 2, Seq: 3}, To: cl3, M: core.AssertMsg{Intro: root, IntroSeq: 12}, Seq: 7}},
			// An Ē bundle whose holder is already a tombstone, then that
			// holder's finalisation bundle for another edge.
			{To: 3, Seq: 4, Payload: Destroy{From: ids.ClusterID{Site: 2, Seq: 3}, To: cl3, Seq: 4, M: core.DestroyMsg{
				Auth:  vclock.Vector{{Site: 2, Seq: 3}: vclock.Eps(19)},
				Hints: vclock.Vector{root: vclock.At(18)},
			}}},
			{To: 3, Seq: 5, Payload: Destroy{From: ids.ClusterID{Site: 2, Seq: 3}, To: ids.ClusterID{Site: 3, Seq: 4}, Seq: 5, M: core.DestroyMsg{
				Auth:      vclock.Vector{{Site: 2, Seq: 3}: vclock.Eps(20)},
				Processed: vclock.Vector{root: vclock.At(11)},
			}}},
		},
	}
	// Shard 1 is a rootless partition holding one cluster.
	shard1 := ShardState{Heap: heap.Image{
		Site:     2,
		NextObj:  5,
		NextClu:  8,
		Clusters: []heap.ClusterImage{{ID: ids.ClusterID{Site: 2, Seq: 8}}},
	}}
	return &SiteImage{Site: 2, Mint: 13, PlaceRR: 3, Shards: []ShardState{shard0, shard1}}
}

// ObjectImageAlias keeps the sample readable while exercising the real
// type.
type ObjectImageAlias = heap.ObjectImage

func TestSnapshotRoundTrip(t *testing.T) {
	img := sampleImage()
	data, err := EncodeSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Site != 2 || got.Mint != 13 || got.PlaceRR != 3 || len(got.Shards) != 2 {
		t.Fatalf("header fields: %+v", got)
	}
	if !reflect.DeepEqual(got.Shards[1], img.Shards[1]) {
		t.Fatalf("rootless shard mismatch: %+v", got.Shards[1])
	}
	img0 := img.Shards[0]
	got0 := got.Shards[0]
	if len(got0.Heap.Objects) != 2 || got0.Heap.NextClu != 8 || got0.Heap.Objects[1].Slots[0] != img0.Heap.Objects[1].Slots[0] {
		t.Fatalf("heap image mismatch: %+v", got0.Heap)
	}
	if len(got0.Engine.Procs) != 2 {
		t.Fatalf("engine procs: %+v", got0.Engine.Procs)
	}
	p := got0.Engine.Procs[0]
	if p.Clock != 17 || !p.Active || !p.Born || len(p.Acq) != 1 {
		t.Fatalf("proc mismatch: %+v", p)
	}
	if !p.Log.Own.Equal(img0.Engine.Procs[0].Log.Own) {
		t.Fatalf("own vector mismatch: %v vs %v", p.Log.Own, img0.Engine.Procs[0].Log.Own)
	}
	row := p.Log.VRows[ids.ClusterID{Site: 3, Seq: 9}]
	if !row.Confirmed || !row.Auth.Equal(vclock.Vector{{Site: 2, Seq: 7}: vclock.At(9)}) {
		t.Fatalf("vrow mismatch: %+v", row)
	}
	if u := got0.Engine.Procs[1]; u.Born || !u.Active || u.Log.Own[ids.ClusterID{Site: 3, Seq: 9}] != vclock.Eps(6) {
		t.Fatalf("unborn proc mismatch: %+v", u)
	}
	if got0.Engine.Tombstones[ids.ClusterID{Site: 2, Seq: 3}] != 21 {
		t.Fatalf("tombstones mismatch: %+v", got0.Engine.Tombstones)
	}
	if !reflect.DeepEqual(got0.Retained, img0.Retained) {
		t.Fatalf("retained frames mismatch:\n got %#v\nwant %#v", got0.Retained, img0.Retained)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	cl2 := ids.ClusterID{Site: 2, Seq: 7}
	recs := []*WALRecord{
		{Op: &OpRecord{Kind: OpNewRemote, Holder: ids.ObjectID{Site: 1, Seq: 1}, Site: 2}},
		{Op: &OpRecord{Kind: OpSendRef, Holder: ids.ObjectID{Site: 1, Seq: 2},
			To:     heap.Ref{Obj: ids.ObjectID{Site: 3, Seq: 1}, Cluster: ids.ClusterID{Site: 3, Seq: 1}},
			Target: heap.Ref{Obj: ids.ObjectID{Site: 2, Seq: 4}, Cluster: cl2}}},
		{Op: &OpRecord{Kind: OpClearSlot, Holder: ids.ObjectID{Site: 1, Seq: 1}, Slot: 3}},
		{Op: &OpRecord{Kind: OpCollect}},
		{Deliver: &DeliverRecord{From: 3, Payload: Assert{From: ids.ClusterID{Site: 3, Seq: 2}, To: cl2, M: coreAssert()}}},
		{Deliver: &DeliverRecord{From: 1, Payload: Create{Creator: ids.ClusterID{Site: 1, Seq: 1, Root: true}, Stamp: 2, Obj: ids.ObjectID{Site: 2, Seq: 9}, Cluster: ids.ClusterID{Site: 2, Seq: 9}}}},
	}
	for i, rec := range recs {
		data, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		got, err := DecodeRecord(data)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		switch {
		case rec.Op != nil:
			if got.Op == nil || *got.Op != *rec.Op {
				t.Fatalf("record %d: got %+v want %+v", i, got.Op, rec.Op)
			}
		case rec.Deliver != nil:
			if got.Deliver == nil || got.Deliver.From != rec.Deliver.From {
				t.Fatalf("record %d: got %+v want %+v", i, got.Deliver, rec.Deliver)
			}
			if got.Deliver.Payload.Kind() != rec.Deliver.Payload.Kind() {
				t.Fatalf("record %d: payload kind %q want %q", i, got.Deliver.Payload.Kind(), rec.Deliver.Payload.Kind())
			}
		}
	}
}

func coreAssert() (m core.AssertMsg) {
	m.Stamp = 5
	m.Intro = ids.ClusterID{Site: 1, Seq: 1, Root: true}
	m.IntroSeq = 4
	return m
}

func TestRecordValidation(t *testing.T) {
	if _, err := EncodeRecord(&WALRecord{}); err == nil {
		t.Error("empty record encoded")
	}
	if _, err := EncodeRecord(&WALRecord{Op: &OpRecord{Kind: OpCollect}, Deliver: &DeliverRecord{From: 1, Payload: Create{}}}); err == nil {
		t.Error("double record encoded")
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	img := sampleImage()
	snap, err := EncodeSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(snap[:len(snap)/2]); err == nil {
		t.Error("truncated snapshot decoded")
	}
	rec, err := EncodeRecord(&WALRecord{Op: &OpRecord{Kind: OpCollect}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRecord(rec[:len(rec)-1]); err == nil {
		t.Error("truncated record decoded")
	}
	if _, err := DecodeSnapshot(nil); err == nil {
		t.Error("empty snapshot decoded")
	}

	// An image whose fields encode to distinctive byte runs, each
	// damaged in place: a repeated map key, an unknown stream, a count
	// beyond the bytes left, an unknown payload tag, a trailing byte.
	odd := sampleImage()
	odd.SendStreams = []SendStreamImage{{Peer: 77, Kind: core.StreamMut, NextSeq: 99}}
	odd.RecvStreams = []RecvStreamImage{{Peer: 78, Kind: core.StreamMut, Watermark: 98, Pending: []uint64{5}}}
	odd.Shards[1].Engine.Tombstones = map[ids.ClusterID]uint64{{Site: 5, Seq: 100}: 7, {Site: 5, Seq: 101}: 7}
	odd.Shards[1].Retained = []FrameImage{{To: 79, Payload: FrameAck{Stream: core.StreamMut, Seq: 3, Epoch: 4}, Seq: 97}}
	good, err := EncodeSnapshot(odd)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ from, to, want string }{
		{"\x0a\x65\x07", "\x0a\x64\x07", "repeats key"},
		{"\x4d\x01\x63", "\x4d\x09\x63", "unknown stream 9"},
		{"\x4e\x01\x62\x01\x05", "\x4e\x01\x62\xff\x7f\x05", "exceeds"},
		{"\x4f\x05\x01\x03\x04\x61", "\x4f\x63\x01\x03\x04\x61", "unknown payload tag 99"},
		{"", "", "trailing"},
	} {
		data := []byte(strings.Replace(string(good), tc.from, tc.to, 1))
		if tc.from == "" {
			data = append(data, 0)
		} else if strings.Count(string(good), tc.from) != 1 {
			t.Fatalf("%q does not occur once in the image", tc.from)
		}
		if _, err := DecodeSnapshot(data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want %q", tc.want, err, tc.want)
		}
	}
}

// TestDecodeSnapshotRejectsOtherVersions: exactly one codec version
// decodes — there is no migration code — and an image of any other is
// refused with an error naming both versions, never misdecoded. A
// gob-era image is refused by its first byte, the length gob opens
// with.
func TestDecodeSnapshotRejectsOtherVersions(t *testing.T) {
	good, err := EncodeSnapshot(sampleImage())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []byte{0, 1, 2, 3, codecVersion + 1, 10, 255} {
		_, err := DecodeSnapshot(append([]byte{bad}, good[1:]...))
		if err == nil {
			t.Errorf("version %d accepted", bad)
			continue
		}
		want := fmt.Sprintf("codec version %d, want %d", bad, codecVersion)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: error %q does not say %q", bad, err, want)
		}
	}
	if _, err := DecodeSnapshot(gobEncode(t, sampleImage())); err == nil || !strings.Contains(err.Error(), "codec version") {
		t.Errorf("gob image: err = %v, want a codec-version refusal", err)
	}
	// A current-version image with no shard states (what the pre-uniform
	// draft of the layout decodes to) is refused too, not rebuilt empty.
	img := sampleImage()
	img.Shards = nil
	data, err := EncodeSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(data); err == nil || !strings.Contains(err.Error(), "no shards") {
		t.Errorf("shardless image: err = %v, want a no-shards refusal", err)
	}
}

// TestSnapshotRoundTripStreams: the retirement state survives an
// encode/decode round trip byte-exactly.
func TestSnapshotRoundTripStreams(t *testing.T) {
	img := sampleImage()
	img.Epoch = 4
	img.SendStreams = []SendStreamImage{
		{Peer: 3, Kind: core.StreamMut, NextSeq: 17},
		{Peer: 3, Kind: core.StreamAssert, NextSeq: 5},
	}
	img.RecvStreams = []RecvStreamImage{
		{Peer: 4, Kind: core.StreamDestroy, Watermark: 9, Pending: []uint64{11, 12}},
	}
	img.Shards[0].Retained = []FrameImage{{To: 3, Seq: 16, Payload: Create{Creator: ids.ClusterID{Site: 2, Seq: 7}, Stamp: 3, Seq: 16}}}
	data, err := EncodeSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.SendStreams, img.SendStreams) ||
		!reflect.DeepEqual(got.RecvStreams, img.RecvStreams) ||
		got.Epoch != img.Epoch {
		t.Fatalf("retirement state did not round-trip:\n got %+v\nwant %+v", got, img)
	}
	if out := got.Shards[0].Retained; len(out) != 1 || out[0].Seq != 16 {
		t.Fatalf("retained frame's seq lost: %+v", out)
	}
}
