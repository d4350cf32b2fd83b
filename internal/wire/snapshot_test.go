package wire

import (
	"bytes"
	"encoding/gob"
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
		Removals: 1,
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
			Edges: []heap.EdgeImage{{From: cl2, To: cl3, Count: 1}},
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
			Asserts: []core.AssertRowImage{
				{Holder: cl2, Target: cl3, Intro: root, Seq: 11, Stamp: 16},
				{Holder: ids.ClusterID{Site: 2, Seq: 3}, Target: cl3, Intro: root, Seq: 12, Stamp: 0},
			},
			// An Ē bundle whose holder is already a tombstone, then that
			// holder's finalisation bundle for another edge.
			Destroys: []core.DestroyImage{{
				Holder: ids.ClusterID{Site: 2, Seq: 3}, Target: cl3, Seq: 4,
				M: core.DestroyMsg{
					Auth:  vclock.Vector{{Site: 2, Seq: 3}: vclock.Eps(19)},
					Hints: vclock.Vector{root: vclock.At(18)},
				},
			}, {
				Holder: ids.ClusterID{Site: 2, Seq: 3}, Target: ids.ClusterID{Site: 3, Seq: 4}, Seq: 5,
				M: core.DestroyMsg{
					Auth:      vclock.Vector{{Site: 2, Seq: 3}: vclock.Eps(20)},
					Processed: vclock.Vector{root: vclock.At(11)},
				},
			}},
		},
		Outbox: []FrameImage{
			{To: 3, Payload: Create{Creator: cl2, Stamp: 17, Obj: ids.ObjectID{Site: 3, Seq: 40}, Cluster: ids.ClusterID{Site: 3, Seq: 40}}},
			{To: 3, Payload: RefTransfer{FromCluster: cl2, IntroSeq: 12, ToObj: ids.ObjectID{Site: 3, Seq: 2}, ToCluster: cl3, Target: heap.Ref{Obj: obj, Cluster: cl2}}},
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
	if got.Version != SnapshotVersion || got.Site != 2 || got.Mint != 13 || got.PlaceRR != 3 || len(got.Shards) != 2 {
		t.Fatalf("header fields: %+v", got)
	}
	if !reflect.DeepEqual(got.Shards[1], img.Shards[1]) {
		t.Fatalf("rootless shard mismatch: %+v", got.Shards[1])
	}
	img0 := img.Shards[0]
	got0 := got.Shards[0]
	if got0.Removals != 1 {
		t.Fatalf("removals: %+v", got0)
	}
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
	if len(got0.Outbox) != 2 {
		t.Fatalf("outbox mismatch: %+v", got0.Outbox)
	}
	if c, ok := got0.Outbox[0].Payload.(Create); !ok || c.Stamp != 17 {
		t.Fatalf("outbox[0] payload mismatch: %#v", got0.Outbox[0].Payload)
	}
	if r, ok := got0.Outbox[1].Payload.(RefTransfer); !ok || r.IntroSeq != 12 || !r.ToCluster.Valid() {
		t.Fatalf("outbox[1] payload mismatch: %#v", got0.Outbox[1].Payload)
	}
	if len(got0.Engine.Asserts) != 2 || got0.Engine.Asserts[0] != img0.Engine.Asserts[0] ||
		got0.Engine.Asserts[1].Stamp != 0 {
		t.Fatalf("assert journal mismatch: %+v", got0.Engine.Asserts)
	}
	if !reflect.DeepEqual(got0.Engine.Destroys, img0.Engine.Destroys) {
		t.Fatalf("destroy bundles mismatch: %+v", got0.Engine.Destroys)
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
}

// TestDecodeSnapshotRejectsOtherVersions: exactly one snapshot version
// decodes — there is no migration code — and any other is refused with
// an error naming both versions, never misdecoded.
func TestDecodeSnapshotRejectsOtherVersions(t *testing.T) {
	for _, bad := range []int{0, 2, 3, 4, 5, 6, 7, SnapshotVersion + 1} {
		img := sampleImage()
		img.Version = bad
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(img); err != nil {
			t.Fatal(err)
		}
		_, err := DecodeSnapshot(buf.Bytes())
		if err == nil {
			t.Errorf("version %d accepted", bad)
			continue
		}
		want := fmt.Sprintf("snapshot version %d, want %d", bad, SnapshotVersion)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: error %q does not say %q", bad, err, want)
		}
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
	img.PeerEpochs = []PeerEpochImage{{Peer: 3, Epoch: 2}}
	img.Frames = FrameStatsImage{AcksSent: 7, ResendsSuppressed: 1, FramesRetired: 12}
	img.Shards[0].Outbox = []FrameImage{{To: 3, Seq: 16, Payload: Create{Creator: ids.ClusterID{Site: 2, Seq: 7}, Stamp: 3, Seq: 16}}}
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
		!reflect.DeepEqual(got.PeerEpochs, img.PeerEpochs) ||
		got.Frames != img.Frames || got.Epoch != img.Epoch {
		t.Fatalf("retirement state did not round-trip:\n got %+v\nwant %+v", got, img)
	}
	if out := got.Shards[0].Outbox; len(out) != 1 || out[0].Seq != 16 {
		t.Fatalf("outbox seq lost: %+v", out)
	}
}
