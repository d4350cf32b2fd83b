package tcp

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/wire"
)

// allocated reports the bytes f allocates (runtime.MemStats.TotalAlloc).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadFrameAllocatesWhatArrives: a length prefix claiming the
// largest frame, followed by ten bytes and EOF, is an error that costs
// what arrived, not the 16 MiB claimed.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	data := binary.BigEndian.AppendUint32(nil, maxFrame)
	data = append(data, make([]byte, 10)...)
	var err error
	n := allocated(func() { _, err = readFrame(bytes.NewReader(data)) })
	if err == nil {
		t.Fatal("a truncated body decoded")
	}
	if n >= 1<<20 {
		t.Fatalf("readFrame allocated %d bytes for a 10-byte body", n)
	}
}

// TestReadFrameRoundTrip: encodeFrame's output reads back as the same
// frame — a bare payload, a small envelope, and an envelope several
// times readChunk, whose body buffer has to grow as it arrives.
func TestReadFrameRoundTrip(t *testing.T) {
	var big wire.Envelope
	for i := range 3 * readChunk / 4 {
		big.Frames = append(big.Frames, wire.FrameAck{Stream: 1, Seq: uint64(i), Epoch: 1})
	}
	for _, p := range []netsim.Payload{
		wire.FrameAck{Stream: 1, Seq: 7, Epoch: 2},
		wire.Envelope{Frames: []netsim.Payload{wire.Create{Obj: ids.ObjectID{Site: 2, Seq: 9}, Seq: 3}, wire.Assert{Seq: 4}}},
		big,
	} {
		f := wire.Frame{From: 1, To: 2, Payload: p}
		buf, err := encodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := readFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("got %#v, want %#v", got, f)
		}
	}
}

// FuzzReadFrame: no byte stream panics the length-prefixed reader, and
// what one read allocates is bounded by what arrived — a fixed multiple
// of the input (decoded maps and boxed payloads outweigh their varints)
// plus a constant for the first body chunk — never by the length the
// prefix claims.
func FuzzReadFrame(f *testing.F) {
	for _, p := range []netsim.Payload{
		wire.FrameAck{Stream: 1, Seq: 7, Epoch: 2},
		wire.StreamAdvance{Stream: 3, Floor: 9},
		wire.Envelope{Frames: []netsim.Payload{wire.Create{Seq: 1}, wire.RefTransfer{IntroSeq: 2}}},
	} {
		buf, err := encodeFrame(wire.Frame{From: 1, To: 2, Payload: p})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := allocated(func() { _, _ = readFrame(bytes.NewReader(data)) })
		if limit := uint64(64*len(data) + 2*readChunk); n > limit {
			t.Fatalf("read of %d bytes allocated %d (limit %d)", len(data), n, limit)
		}
	})
}
