package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadSegment: no segment file panics the reader, strict or
// tail-tolerant, and what it accepts is the file exactly: every returned
// record is the next frame's body and passes that frame's CRC, and the
// bytes after the last record are the discarded tail — none when strict.
func FuzzReadSegment(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range [][]byte{[]byte("one"), bytes.Repeat([]byte{0xab}, 300), {0}} {
		if err := s.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(0, 1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-2])
	f.Add(seg[:headerLen])
	f.Add([]byte(walMagic))

	// One file rewritten per input: a fuzz worker runs its inputs one at
	// a time, and a fresh directory each would dominate the run.
	scratch := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(scratch, segName(0, 1))
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		for _, tolerateTail := range []bool{false, true} {
			recs, discarded, err := readSegment(path, tolerateTail)
			if err != nil {
				continue
			}
			if len(data) < headerLen {
				if len(recs) != 0 || discarded != int64(len(data)) {
					t.Fatalf("headerless %d-byte segment: %d records, %d discarded", len(data), len(recs), discarded)
				}
				continue
			}
			off := headerLen
			for i, rec := range recs {
				size := binary.BigEndian.Uint32(data[off:])
				sum := binary.BigEndian.Uint32(data[off+4:])
				body := data[off+frameLen : off+frameLen+int(size)]
				if !bytes.Equal(rec, body) || crc32.Checksum(rec, crcTable) != sum {
					t.Fatalf("record %d at offset %d does not match its frame", i, off)
				}
				off += frameLen + len(rec)
			}
			if discarded != int64(len(data)-off) || (!tolerateTail && discarded != 0) {
				t.Fatalf("tolerateTail=%v: %d bytes after the records, %d discarded", tolerateTail, len(data)-off, discarded)
			}
		}
	})
}
