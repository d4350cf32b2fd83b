package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Sentinel errors. Match with errors.Is.
var (
	// ErrCorrupt: a snapshot or a non-tail WAL record failed its CRC or
	// framing check. The store refuses to guess at the missing state.
	ErrCorrupt = errors.New("persist: corrupt store")
	// ErrClosed: the store was closed.
	ErrClosed = errors.New("persist: store closed")
)

// Options tune a Store.
type Options struct {
	// NoSync disables fsync on appends and snapshots. Throughput rises;
	// an OS crash (not a process crash) may then lose the unsynced tail,
	// which weakens the "nothing sent before durable" invariant the
	// recovery argument rests on. Reserved for benchmarks and simulation.
	NoSync bool
	// GroupCommit is ignored: every Append is synced before it returns
	// unless NoSync is set. The field is kept only because bench/ sets
	// it.
	GroupCommit time.Duration
}

const (
	walMagic  = "CGCW"
	snapMagic = "CGCS"
	version   = uint32(1)
	headerLen = 8 // 4 magic + 4 version
	frameLen  = 8 // 4 length + 4 crc
	// maxRecord bounds one WAL record / snapshot body; larger frames
	// indicate corruption.
	maxRecord = 1 << 30
	// segmentBytes rotates the WAL to a new segment once the current one
	// exceeds this size.
	segmentBytes = 4 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Stats counts store activity.
type Stats struct {
	// Appends counts records appended in this session.
	Appends int
	// Syncs counts WAL fsyncs in this session: one per Append unless
	// NoSync is set.
	Syncs int
	// SyncNanos is the total wall-clock time spent in WAL fsyncs this
	// session, in nanoseconds; SyncNanos/Syncs is the mean fsync latency
	// the durability tax the store is paying per sync.
	SyncNanos int64
	// SyncMaxNanos is the slowest single WAL fsync of the session, in
	// nanoseconds — the tail a latency budget is asserted against.
	SyncMaxNanos int64
	// Snapshots counts snapshots written in this session.
	Snapshots int
	// RecoveredRecords counts WAL records recovered at Open.
	RecoveredRecords int
	// DiscardedTailBytes counts bytes of torn tail discarded at Open.
	DiscardedTailBytes int64
}

// Store is one site's durable state: the latest snapshot plus the WAL
// segments appended since. Safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options
	// rotateAt is the segment size past which Append rotates:
	// segmentBytes, lowered only by tests that need several segments.
	rotateAt int64

	gen     uint64 // generation of the live snapshot (0: none yet)
	seq     uint64 // last segment sequence number in this generation
	seg     *os.File
	segSize int64
	closed  bool
	// failed poisons the store after a write error that could not be
	// rolled back (truncate failed): continuing could leave a torn
	// record mid-segment ahead of durable ones, which recovery would
	// then discard or reject.
	failed error

	snapshot []byte   // recovered snapshot body (nil if none)
	wal      [][]byte // recovered WAL records of the live generation
	stats    Stats
}

// Open opens (or creates) a store directory and performs recovery:
// after Open, Snapshot/WAL return the durable state and Append
// continues the log in a fresh segment.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	s := &Store{dir: dir, opts: opts, rotateAt: segmentBytes}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Snapshot returns the recovered snapshot body, or nil when the store
// has none (a fresh directory). The slice is owned by the caller.
func (s *Store) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshot
}

// WAL returns the recovered WAL records of the live generation, in
// append order. The slices are owned by the caller.
func (s *Store) WAL() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal
}

// Stats returns a copy of the activity counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Append durably appends one WAL record. The record is synced to disk
// before Append returns (unless Options.NoSync), so a caller may act on
// it — send messages, mutate state — the moment Append succeeds.
func (s *Store) Append(payload []byte) error {
	if len(payload) == 0 || len(payload) > maxRecord {
		return fmt.Errorf("persist: append of %d bytes", len(payload))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return s.failed
	}
	if s.seg == nil || s.segSize >= s.rotateAt {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	frame := make([]byte, frameLen+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[frameLen:], payload)
	if _, err := s.seg.Write(frame); err != nil {
		s.rollbackTornWriteLocked()
		return fmt.Errorf("persist: append: %w", err)
	}
	if !s.opts.NoSync {
		if err := s.syncSegLocked(); err != nil {
			// The frame is in the file but not provably durable: roll it
			// back so the caller's "append failed ⇒ event never happened"
			// contract holds.
			s.rollbackTornWriteLocked()
			return fmt.Errorf("persist: sync: %w", err)
		}
	}
	s.segSize += int64(len(frame))
	s.stats.Appends++
	return nil
}

// syncSegLocked fsyncs the live segment, timing the call and folding the
// latency into the stats on success.
func (s *Store) syncSegLocked() error {
	start := time.Now()
	if err := s.seg.Sync(); err != nil {
		return err
	}
	d := time.Since(start).Nanoseconds()
	s.stats.Syncs++
	s.stats.SyncNanos += d
	if d > s.stats.SyncMaxNanos {
		s.stats.SyncMaxNanos = d
	}
	return nil
}

// rollbackTornWriteLocked removes a possibly-partial frame from the
// segment tail after a failed write or sync, restoring the segment to
// its pre-append state. A record left torn mid-segment would make a
// later successful append un-recoverable: recovery stops at (last
// segment) or rejects (earlier segment) the first bad frame, taking
// every durable record after it down too. If the rollback itself fails
// the store is poisoned: further appends refuse rather than risk that.
func (s *Store) rollbackTornWriteLocked() {
	if err := s.seg.Truncate(s.segSize); err == nil {
		if _, err = s.seg.Seek(s.segSize, 0); err == nil {
			return
		}
	}
	s.seg.Close()
	s.seg = nil
	s.failed = fmt.Errorf("%w: segment tail rollback failed", ErrCorrupt)
}

// WriteSnapshot atomically replaces the store's durable state with the
// given full-state snapshot and starts a new WAL generation. Earlier
// segments and snapshots are deleted only after the new snapshot is
// durable (tmp + fsync + rename + directory fsync).
func (s *Store) WriteSnapshot(payload []byte) error {
	if len(payload) == 0 || len(payload) > maxRecord {
		return fmt.Errorf("persist: snapshot of %d bytes", len(payload))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	newGen := s.gen + 1
	final := filepath.Join(s.dir, snapName(newGen))
	tmp := final + ".tmp"
	buf := make([]byte, headerLen+frameLen+len(payload))
	copy(buf[0:4], snapMagic)
	binary.BigEndian.PutUint32(buf[4:8], version)
	binary.BigEndian.PutUint32(buf[8:12], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[12:16], crc32.Checksum(payload, crcTable))
	copy(buf[headerLen+frameLen:], payload)
	if err := writeFileSync(tmp, buf, !s.opts.NoSync); err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("persist: snapshot commit: %w", err)
	}
	if !s.opts.NoSync {
		syncDir(s.dir)
	}
	// The snapshot is the commit point; everything below is cleanup.
	if s.seg != nil {
		s.seg.Close()
		s.seg = nil
	}
	oldGen := s.gen
	s.gen = newGen
	s.seq = 0
	s.segSize = 0
	// A successful snapshot supersedes the whole previous generation,
	// torn tails included: un-poison the store.
	s.failed = nil
	s.removeGenerationsThrough(oldGen)
	s.stats.Snapshots++
	return nil
}

// Close closes the store's file handles. Close does not snapshot: a
// closed store is indistinguishable from a crashed one, which is
// exactly the property the recovery path is built for.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.seg != nil {
		err := s.seg.Close()
		s.seg = nil
		return err
	}
	return nil
}

// --- internals -----------------------------------------------------------

func snapName(gen uint64) string { return fmt.Sprintf("snap-%016d.snap", gen) }

func segName(gen, seq uint64) string {
	return fmt.Sprintf("wal-%016d-%016d.log", gen, seq)
}

// rotateLocked opens the next WAL segment of the current generation.
func (s *Store) rotateLocked() error {
	if s.seg != nil {
		if err := s.seg.Close(); err != nil {
			return fmt.Errorf("persist: rotate: %w", err)
		}
		s.seg = nil
	}
	s.seq++
	name := filepath.Join(s.dir, segName(s.gen, s.seq))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o666)
	if err != nil {
		return fmt.Errorf("persist: rotate: %w", err)
	}
	hdr := make([]byte, headerLen)
	copy(hdr[0:4], walMagic)
	binary.BigEndian.PutUint32(hdr[4:8], version)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("persist: rotate: %w", err)
	}
	if !s.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("persist: rotate: %w", err)
		}
		syncDir(s.dir)
	}
	s.seg = f
	s.segSize = headerLen
	return nil
}

// recover scans the directory, loads the latest valid snapshot and the
// WAL records of its generation, and positions the store to append.
func (s *Store) recover() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	type segRef struct {
		gen, seq uint64
		name     string
	}
	var segs []segRef
	var snapGens []uint64
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// An uncommitted snapshot: a crash mid-write. Remove.
			os.Remove(filepath.Join(s.dir, name))
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			var gen uint64
			if _, err := fmt.Sscanf(name, "snap-%016d.snap", &gen); err == nil {
				snapGens = append(snapGens, gen)
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			var gen, seq uint64
			if _, err := fmt.Sscanf(name, "wal-%016d-%016d.log", &gen, &seq); err == nil {
				segs = append(segs, segRef{gen: gen, seq: seq, name: name})
			}
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] < snapGens[j] })
	if len(snapGens) > 0 {
		s.gen = snapGens[len(snapGens)-1]
		body, err := readSnapshot(filepath.Join(s.dir, snapName(s.gen)))
		if err != nil {
			// The committed snapshot is damaged. Falling back to an older
			// generation would roll the site back past messages it already
			// sent, which is unsafe; refuse instead.
			return err
		}
		s.snapshot = body
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].gen != segs[j].gen {
			return segs[i].gen < segs[j].gen
		}
		return segs[i].seq < segs[j].seq
	})
	var live []segRef
	for _, sg := range segs {
		if sg.gen == s.gen {
			live = append(live, sg)
		}
	}
	for i, sg := range live {
		last := i == len(live)-1
		path := filepath.Join(s.dir, sg.name)
		recs, discarded, err := readSegment(path, last)
		if err != nil {
			return err
		}
		s.wal = append(s.wal, recs...)
		s.stats.DiscardedTailBytes += discarded
		if discarded > 0 {
			// Physically remove the torn tail now: appends after recovery
			// go to a fresh segment, so this one will no longer be "last"
			// — a later recovery would treat the leftover torn bytes as
			// interior corruption and permanently refuse the store.
			if err := truncateTornTail(path, discarded); err != nil {
				return err
			}
		}
		if sg.seq > s.seq {
			s.seq = sg.seq
		}
	}
	s.stats.RecoveredRecords = len(s.wal)
	// Garbage-collect superseded generations left by a crash between a
	// snapshot commit and its cleanup.
	if s.gen > 0 {
		s.removeGenerationsThrough(s.gen - 1)
	}
	return nil
}

// removeGenerationsThrough best-effort deletes snapshots and segments
// with generation <= gen (the live snapshot of generation s.gen stays).
func (s *Store) removeGenerationsThrough(gen uint64) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		var g, q uint64
		if _, err := fmt.Sscanf(name, "snap-%016d.snap", &g); err == nil && g <= gen {
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		if _, err := fmt.Sscanf(name, "wal-%016d-%016d.log", &g, &q); err == nil && g <= gen {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}

// truncateTornTail cuts the trailing `discarded` bytes off a recovered
// segment; a segment left without even a full header is deleted. A
// failure here fails recovery: continuing would brick the store on the
// restart after next.
func truncateTornTail(path string, discarded int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("persist: trim torn tail: %w", err)
	}
	valid := fi.Size() - discarded
	if valid <= headerLen {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("persist: remove torn segment: %w", err)
		}
		return nil
	}
	if err := os.Truncate(path, valid); err != nil {
		return fmt.Errorf("persist: trim torn tail: %w", err)
	}
	return nil
}

// readSnapshot validates and returns a snapshot file's body.
func readSnapshot(path string) ([]byte, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if len(buf) < headerLen+frameLen || string(buf[0:4]) != snapMagic {
		return nil, fmt.Errorf("%w: snapshot %s: bad header", ErrCorrupt, filepath.Base(path))
	}
	if v := binary.BigEndian.Uint32(buf[4:8]); v != version {
		return nil, fmt.Errorf("%w: snapshot %s: version %d", ErrCorrupt, filepath.Base(path), v)
	}
	size := binary.BigEndian.Uint32(buf[8:12])
	sum := binary.BigEndian.Uint32(buf[12:16])
	body := buf[headerLen+frameLen:]
	if uint32(len(body)) != size || crc32.Checksum(body, crcTable) != sum {
		return nil, fmt.Errorf("%w: snapshot %s: crc/length mismatch", ErrCorrupt, filepath.Base(path))
	}
	return body, nil
}

// readSegment reads the records of one WAL segment. When tolerateTail
// is true (last segment of the generation), a short or CRC-failing
// trailing record is discarded as a torn write; otherwise it is
// ErrCorrupt.
func readSegment(path string, tolerateTail bool) (recs [][]byte, discarded int64, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: %w", err)
	}
	base := filepath.Base(path)
	if len(buf) < headerLen || string(buf[0:4]) != walMagic {
		if tolerateTail && len(buf) < headerLen {
			// A crash immediately after segment creation.
			return nil, int64(len(buf)), nil
		}
		return nil, 0, fmt.Errorf("%w: segment %s: bad header", ErrCorrupt, base)
	}
	if v := binary.BigEndian.Uint32(buf[4:8]); v != version {
		return nil, 0, fmt.Errorf("%w: segment %s: version %d", ErrCorrupt, base, v)
	}
	off := int64(headerLen)
	data := buf[headerLen:]
	for len(data) > 0 {
		bad := ""
		var rec []byte
		if len(data) < frameLen {
			bad = "short frame"
		} else {
			size := binary.BigEndian.Uint32(data[0:4])
			sum := binary.BigEndian.Uint32(data[4:8])
			switch {
			case size == 0 || size > maxRecord:
				bad = fmt.Sprintf("bad record size %d", size)
			case int(size) > len(data)-frameLen:
				bad = "truncated record"
			default:
				rec = data[frameLen : frameLen+int(size)]
				if crc32.Checksum(rec, crcTable) != sum {
					bad = "crc mismatch"
				}
			}
		}
		if bad != "" {
			if tolerateTail {
				return recs, int64(len(data)), nil
			}
			return nil, 0, fmt.Errorf("%w: segment %s at offset %d: %s", ErrCorrupt, base, off, bad)
		}
		recs = append(recs, rec)
		step := int64(frameLen + len(rec))
		off += step
		data = data[step:]
	}
	return recs, 0, nil
}

// writeFileSync writes a file and optionally fsyncs it before close.
func writeFileSync(path string, data []byte, sync bool) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and creates are durable.
// Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
