package persist

import "testing"

// TestAppendAllocs bounds the allocations of one unsynced Append of a
// small record: the one allocation measured when the gate was set is
// the length- and checksum-prefixed frame the store writes. No map
// grows on this path, so the bound has no margin.
func TestAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	s := reopen(t, t.TempDir(), Options{NoSync: true})
	defer s.Close()
	rec := []byte("a small record of about forty bytes....")
	got := testing.AllocsPerRun(1000, func() {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one unsynced append: %.2f allocations", got)
	if got > 1 {
		t.Fatalf("one unsynced append allocates %.2f times, want <= 1", got)
	}
}
