// The codec: the one place in the module that knows how wire values
// become bytes. Snapshots, WAL records and the addressed frames a socket
// transport carries all go through the functions below, and nothing
// outside this file imports the encoding — replacing it is a change to
// this file alone.
//
// Encoding is gob, one self-contained stream per value: a reader can
// resynchronise per value and a reconnecting sender needs no codec
// state.

package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"causalgc/internal/ids"
	"causalgc/internal/netsim"
)

func init() {
	for _, p := range []netsim.Payload{
		Create{}, RefTransfer{}, Destroy{}, Assert{},
		FrameAck{}, StreamAdvance{}, Propagate{}, Envelope{},
	} {
		RegisterPayload(p)
	}
}

// RegisterPayload makes a payload's concrete type known to the codec,
// which carries payloads behind netsim.Payload fields. The wire
// messages of this package are registered already; a process that
// sends any other payload type over a socket transport, or journals
// it, registers it first — in every process that may decode it.
func RegisterPayload(p netsim.Payload) { gob.Register(p) }

// Frame is the addressed unit a socket transport carries: one payload
// with its source and destination sites.
type Frame struct {
	From    ids.SiteID
	To      ids.SiteID
	Payload netsim.Payload
}

// encode writes v to w as one self-contained stream.
func encode(w io.Writer, what string, v any) error {
	if err := gob.NewEncoder(w).Encode(v); err != nil {
		return fmt.Errorf("wire: encode %s: %w", what, err)
	}
	return nil
}

// decode parses one stream written by encode into v.
func decode(data []byte, what string, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("wire: decode %s: %w", what, err)
	}
	return nil
}

// EncodeFrame writes the encoding of f to w. Delimiting frames on a
// stream (length prefix, size cap) is the transport's business.
func EncodeFrame(w io.Writer, f *Frame) error { return encode(w, "frame", f) }

// DecodeFrame parses one frame body.
func DecodeFrame(data []byte) (Frame, error) {
	var f Frame
	err := decode(data, "frame", &f)
	return f, err
}

// EncodeSnapshot renders a SiteImage for persist.Store.WriteSnapshot.
func EncodeSnapshot(img *SiteImage) ([]byte, error) {
	img.Version = SnapshotVersion
	var buf bytes.Buffer
	if err := encode(&buf, "snapshot", img); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot parses a snapshot body, accepting SnapshotVersion only
// and only an image that records at least one shard.
func DecodeSnapshot(data []byte) (*SiteImage, error) {
	var img SiteImage
	if err := decode(data, "snapshot", &img); err != nil {
		return nil, err
	}
	if img.Version != SnapshotVersion {
		return nil, fmt.Errorf("wire: snapshot version %d, want %d", img.Version, SnapshotVersion)
	}
	if len(img.Shards) == 0 {
		return nil, fmt.Errorf("wire: snapshot of site %v records no shards", img.Site)
	}
	return &img, nil
}

// recordArity counts the set fields of a WALRecord (exactly one must
// be).
func recordArity(rec *WALRecord) int {
	n := 0
	if rec.Op != nil {
		n++
	}
	if rec.Deliver != nil {
		n++
	}
	if rec.Batch != nil {
		n++
	}
	return n
}

// EncodeRecord renders a WALRecord for persist.Store.Append.
func EncodeRecord(rec *WALRecord) ([]byte, error) {
	if recordArity(rec) != 1 {
		return nil, fmt.Errorf("wire: record must set exactly one of Op/Deliver/Batch")
	}
	var buf bytes.Buffer
	if err := encode(&buf, "record", rec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeRecord parses one WAL record.
func DecodeRecord(data []byte) (*WALRecord, error) {
	var rec WALRecord
	if err := decode(data, "record", &rec); err != nil {
		return nil, err
	}
	if recordArity(&rec) != 1 {
		return nil, fmt.Errorf("wire: record must set exactly one of Op/Deliver/Batch")
	}
	return &rec, nil
}
