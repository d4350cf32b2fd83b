package wire

import (
	"bytes"
	"testing"

	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/vclock"
)

// TestCodecAllocs pins the allocations of one encode and decode round
// trip of the three values the codec carries most: a frame with a
// delivery-sized edge-destruction payload, a single-op WAL record and
// a batch-64 WAL record (the benchmark's inmem-batch commit). Each
// bound is the count measured when it was set, so one more allocation
// on either side fails.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	ref := func(site ids.SiteID, seq uint64) heap.Ref {
		return heap.Ref{Obj: ids.ObjectID{Site: site, Seq: seq}, Cluster: ids.ClusterID{Site: site, Seq: seq}}
	}
	frame := &Frame{From: 2, To: 1, Payload: Destroy{
		From: ids.ClusterID{Site: 2, Seq: 5}, To: ids.ClusterID{Site: 1, Seq: 9}, Seq: 17,
		M: core.DestroyMsg{Auth: vclock.Vector{
			{Site: 2, Seq: 5}: vclock.Eps(4), {Site: 1, Seq: 1, Root: true}: vclock.At(12),
		}},
	}}
	op := &WALRecord{Op: &OpRecord{
		Kind: OpSendRef, Holder: ids.ObjectID{Site: 1, Seq: 7}, To: ref(2, 3), Target: ref(3, 9),
	}}
	// Eight chains of four creates, then 32 drops.
	batch := &BatchRecord{}
	for c := 0; c < 8; c++ {
		base := len(batch.Ops)
		batch.Ops = append(batch.Ops,
			BatchOp{Op: OpRecord{Kind: OpNewLocal, Holder: ids.ObjectID{Site: 1, Seq: 1}}},
			BatchOp{Op: OpRecord{Kind: OpNewLocal}, HolderFrom: base + 1},
			BatchOp{Op: OpRecord{Kind: OpNewLocal}, HolderFrom: base + 2},
			BatchOp{Op: OpRecord{Kind: OpNewRemote, Site: 2}, HolderFrom: base + 3},
		)
	}
	for i := 0; i < 32; i++ {
		batch.Ops = append(batch.Ops, BatchOp{Op: OpRecord{
			Kind: OpDropRefs, Holder: ids.ObjectID{Site: 1, Seq: uint64(100 + i)}, Target: ref(1, uint64(200+i)),
		}})
	}

	var buf bytes.Buffer
	record := func(rec *WALRecord) func() {
		return func() {
			data, err := EncodeRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeRecord(data); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name  string
		run   func()
		bound float64
	}{
		{"frame", func() {
			buf.Reset()
			if err := EncodeFrame(&buf, frame); err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeFrame(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
		}, 4},
		{"op record", record(op), 3},
		{"batch-64 record", record(&WALRecord{Batch: batch}), 4},
	} {
		got := testing.AllocsPerRun(100, c.run)
		t.Logf("%s encode + decode: %.0f allocations", c.name, got)
		if got > c.bound {
			t.Errorf("%s encode + decode allocates %.0f times, want <= %.0f", c.name, got, c.bound)
		}
	}
}
