package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func reopen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func appendAll(t *testing.T, s *Store, recs ...[]byte) {
	t.Helper()
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

func wantWAL(t *testing.T, s *Store, want ...[]byte) {
	t.Helper()
	got := s.WAL()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAppendRecover(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	recs := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	appendAll(t, s, recs...)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := reopen(t, dir, Options{})
	defer r.Close()
	if r.Snapshot() != nil {
		t.Fatal("fresh store recovered a snapshot")
	}
	wantWAL(t, r, recs...)
}

func TestSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	appendAll(t, s, []byte("pre-1"), []byte("pre-2"))
	if err := s.WriteSnapshot([]byte("image-1")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, []byte("post-1"))
	s.Close()

	r := reopen(t, dir, Options{})
	defer r.Close()
	if got := r.Snapshot(); string(got) != "image-1" {
		t.Fatalf("snapshot = %q, want image-1", got)
	}
	wantWAL(t, r, []byte("post-1"))
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	s.rotateAt = 64
	var recs [][]byte
	for i := 0; i < 20; i++ {
		recs = append(recs, []byte(fmt.Sprintf("record-%02d-padding-padding", i)))
	}
	appendAll(t, s, recs...)
	s.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 2 {
		t.Fatalf("expected rotation, found %d segments", len(segs))
	}
	r := reopen(t, dir, Options{})
	defer r.Close()
	wantWAL(t, r, recs...)
}

func TestAppendAfterRecoveryStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	appendAll(t, s, []byte("a"))
	s.Close()

	r := reopen(t, dir, Options{})
	appendAll(t, r, []byte("b"))
	r.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 2 {
		t.Fatalf("expected 2 segments (no reuse after recovery), found %d", len(segs))
	}
	rr := reopen(t, dir, Options{})
	defer rr.Close()
	wantWAL(t, rr, []byte("a"), []byte("b"))
}

// lastSegment returns the path of the newest WAL segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	last := segs[0]
	for _, s := range segs[1:] {
		if s > last {
			last = s
		}
	}
	return last
}

func TestTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	appendAll(t, s, []byte("kept-1"), []byte("kept-2"), []byte("torn-victim"))
	s.Close()

	// Chop bytes off the segment, simulating a crash mid-append.
	seg := lastSegment(t, dir)
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, buf[:len(buf)-5], 0o666); err != nil {
		t.Fatal(err)
	}

	r := reopen(t, dir, Options{})
	defer r.Close()
	wantWAL(t, r, []byte("kept-1"), []byte("kept-2"))
	if st := r.Stats(); st.DiscardedTailBytes == 0 {
		t.Error("discarded tail not recorded in stats")
	}
}

// TestTornTailSurvivesSecondCrash: the torn tail must be physically
// trimmed at recovery, or the segment — no longer "last" once new
// appends rotate past it — would read as interior corruption on the
// restart after next, permanently bricking the store.
func TestTornTailSurvivesSecondCrash(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	appendAll(t, s, []byte("kept-1"), []byte("torn"))
	s.Close()

	seg := lastSegment(t, dir)
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, buf[:len(buf)-5], 0o666); err != nil {
		t.Fatal(err)
	}

	// First restart discards the tail and appends into a new segment.
	r := reopen(t, dir, Options{})
	appendAll(t, r, []byte("after-crash"))
	r.Close()

	// Second restart: the once-torn segment is now interior and must
	// read clean.
	rr := reopen(t, dir, Options{})
	defer rr.Close()
	wantWAL(t, rr, []byte("kept-1"), []byte("after-crash"))
}

// TestHeaderlessTornSegmentRemoved: a crash right after segment
// creation (not even a full header) must not poison later recoveries.
func TestHeaderlessTornSegmentRemoved(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	appendAll(t, s, []byte("kept"))
	s.Close()
	seg := lastSegment(t, dir)
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, segName(0, 2))
	if err := os.WriteFile(torn, buf[:3], 0o666); err != nil {
		t.Fatal(err)
	}

	r := reopen(t, dir, Options{})
	appendAll(t, r, []byte("later"))
	r.Close()
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Error("headerless torn segment not removed at recovery")
	}

	rr := reopen(t, dir, Options{})
	defer rr.Close()
	wantWAL(t, rr, []byte("kept"), []byte("later"))
}

func TestCorruptCRCInTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	appendAll(t, s, []byte("kept"), []byte("flipped"))
	s.Close()

	seg := lastSegment(t, dir)
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff // flip a bit in the last record's payload
	if err := os.WriteFile(seg, buf, 0o666); err != nil {
		t.Fatal(err)
	}

	r := reopen(t, dir, Options{})
	defer r.Close()
	wantWAL(t, r, []byte("kept"))
}

func TestCorruptInteriorSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	s.rotateAt = 32
	appendAll(t, s, []byte("seg1-record-padding"), []byte("seg2-record-padding"), []byte("seg3-record-padding"))
	s.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 2 {
		t.Fatalf("need >=2 segments, got %d", len(segs))
	}
	first := segs[0]
	for _, sg := range segs {
		if sg < first {
			first = sg
		}
	}
	buf, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(first, buf, 0o666); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over interior corruption: want ErrCorrupt, got %v", err)
	}
}

func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	if err := s.WriteSnapshot([]byte("the-image")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("want 1 snapshot, got %d", len(snaps))
	}
	buf, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(snaps[0], buf, 0o666); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over corrupt snapshot: want ErrCorrupt, got %v", err)
	}
}

func TestUncommittedSnapshotIgnored(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	appendAll(t, s, []byte("survives"))
	s.Close()

	// A crash mid-snapshot leaves a .tmp; recovery must ignore and
	// remove it.
	tmp := filepath.Join(dir, snapName(1)+".tmp")
	if err := os.WriteFile(tmp, []byte("partial garbage"), 0o666); err != nil {
		t.Fatal(err)
	}

	r := reopen(t, dir, Options{})
	defer r.Close()
	if r.Snapshot() != nil {
		t.Fatal("recovered state from an uncommitted snapshot")
	}
	wantWAL(t, r, []byte("survives"))
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("tmp snapshot not cleaned up")
	}
}

func TestStaleGenerationIgnored(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	appendAll(t, s, []byte("old-gen"))
	if err := s.WriteSnapshot([]byte("image")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, []byte("new-gen"))
	s.Close()

	// Resurrect a stale pre-snapshot segment, as if the post-commit
	// cleanup had crashed: recovery must not replay it.
	stale := filepath.Join(dir, segName(0, 1))
	f, err := os.Create(stale)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(walMagic)
	f.Write([]byte{0, 0, 0, 1})
	f.Close()

	r := reopen(t, dir, Options{})
	defer r.Close()
	if got := r.Snapshot(); string(got) != "image" {
		t.Fatalf("snapshot = %q", got)
	}
	wantWAL(t, r, []byte("new-gen"))
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale generation segment not garbage-collected")
	}
}

func TestMultipleSnapshots(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	for i := 1; i <= 3; i++ {
		appendAll(t, s, []byte(fmt.Sprintf("r%d", i)))
		if err := s.WriteSnapshot([]byte(fmt.Sprintf("image-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("old snapshots not pruned: %v", snaps)
	}
	if !strings.HasSuffix(snaps[0], snapName(3)) {
		t.Fatalf("kept wrong snapshot: %v", snaps)
	}
	r := reopen(t, dir, Options{})
	defer r.Close()
	if got := r.Snapshot(); string(got) != "image-3" {
		t.Fatalf("snapshot = %q", got)
	}
	wantWAL(t, r)
}

func TestClosedStoreErrors(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	s.Close()
	if err := s.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Append after Close: want ErrClosed, got %v", err)
	}
	if err := s.WriteSnapshot([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("WriteSnapshot after Close: want ErrClosed, got %v", err)
	}
}

// TestStoreSyncsEveryAppend: every append is synced before Append
// returns, whatever GroupCommit says, and the store runs no goroutine of
// its own.
func TestStoreSyncsEveryAppend(t *testing.T) {
	s := reopen(t, t.TempDir(), Options{GroupCommit: time.Hour})
	if g := storeGoroutines(); g != "" {
		t.Errorf("Open started a goroutine:\n%s", g)
	}
	const n = 16
	for i := 0; i < n; i++ {
		appendAll(t, s, []byte(fmt.Sprintf("rec-%02d", i)))
		if st := s.Stats(); st.Syncs != st.Appends {
			t.Fatalf("after append %d: Syncs = %d, Appends = %d", i+1, st.Syncs, st.Appends)
		}
	}
	st := s.Stats()
	if st.Appends != n || st.SyncNanos <= 0 || st.SyncMaxNanos <= 0 || st.SyncMaxNanos > st.SyncNanos {
		t.Errorf("Appends = %d, SyncNanos = %d, SyncMaxNanos = %d", st.Appends, st.SyncNanos, st.SyncMaxNanos)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if g := storeGoroutines(); g != "" {
		t.Errorf("a goroutine outlived Close:\n%s", g)
	}
}

// storeGoroutines returns the stacks of the goroutines, other than the
// caller's, that are inside a Store method. runtime.NumGoroutine would
// also count the goroutines an earlier test leaves winding down.
func storeGoroutines() string {
	buf := make([]byte, 1<<20)
	var found []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "persist.(*Store).") {
			found = append(found, g)
		}
	}
	return strings.Join(found, "\n\n")
}
