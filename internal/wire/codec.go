// The codec: the entry points through which wire values become bytes.
// Frames a socket transport carries and WAL records are binary, in the
// versioned format binary.go defines: a handful of bytes per value and
// no codec state, so a reader resynchronises per value and a
// reconnecting sender starts clean. The payload set is closed — a
// payload of any type this package does not define fails to encode.
//
// Snapshots stay gob, one self-contained stream per image, until
// SiteImage settles: this file is the module's only non-test importer
// of encoding/gob, and only the snapshot pair below calls it.

package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"causalgc/internal/ids"
	"causalgc/internal/netsim"
)

// The snapshot codec carries payloads behind FrameImage.Payload, so gob
// must know their concrete types.
func init() {
	for _, p := range []netsim.Payload{
		Create{}, RefTransfer{}, Destroy{}, Assert{},
		FrameAck{}, Propagate{}, Envelope{},
	} {
		gob.Register(p)
	}
}

// Frame is the addressed unit a socket transport carries: one payload
// with its source and destination sites.
type Frame struct {
	From    ids.SiteID
	To      ids.SiteID
	Payload netsim.Payload
}

// EncodeFrame writes the encoding of f to w. Delimiting frames on a
// stream (length prefix, size cap) is the transport's business.
func EncodeFrame(w io.Writer, f *Frame) error {
	e := encoder{b: make([]byte, 0, 64)}
	if err := e.frame(f); err != nil {
		return fmt.Errorf("wire: encode frame: %w", err)
	}
	_, err := w.Write(e.b)
	return err
}

// DecodeFrame parses one frame body.
func DecodeFrame(data []byte) (Frame, error) {
	d := decoder{b: data}
	f := d.frame()
	if d.err != nil {
		return Frame{}, fmt.Errorf("wire: decode frame: %w", d.err)
	}
	return f, nil
}

// EncodeSnapshot renders a SiteImage for persist.Store.WriteSnapshot.
func EncodeSnapshot(img *SiteImage) ([]byte, error) {
	img.Version = SnapshotVersion
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		return nil, fmt.Errorf("wire: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot parses a snapshot body, accepting SnapshotVersion only
// and only an image that records at least one shard.
func DecodeSnapshot(data []byte) (*SiteImage, error) {
	var img SiteImage
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&img); err != nil {
		return nil, fmt.Errorf("wire: decode snapshot: %w", err)
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
	// One allocation for the common record: an op or a small delivery
	// fits 48 bytes, a batch op takes about 23.
	size := 48
	if rec.Batch != nil {
		size += 24 * len(rec.Batch.Ops)
	}
	e := encoder{b: make([]byte, 0, size)}
	if err := e.record(rec); err != nil {
		return nil, fmt.Errorf("wire: encode record: %w", err)
	}
	return e.b, nil
}

// DecodeRecord parses one WAL record. A record of another codec version
// — a journal written by a gob-era build among them — is refused with
// an error naming the version.
func DecodeRecord(data []byte) (*WALRecord, error) {
	d := decoder{b: data}
	rec := d.record()
	if d.err != nil {
		return nil, fmt.Errorf("wire: decode record: %w", d.err)
	}
	return rec, nil
}
