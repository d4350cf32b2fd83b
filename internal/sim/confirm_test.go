package sim

import (
	"testing"

	"causalgc/internal/heap"
	"causalgc/internal/netsim"
	"causalgc/internal/site"
)

// TestConfirmationGuardCounterexample pins the one deterministic
// schedule known to need the confirmation guard, a bounded
// configuration with one invariant checked at its end (Bouajjani et
// al., "On Verifying Causal Consistency"). On four sites, root₁ creates
// x on site 2, x creates y on site 3 and root₁ creates z on site 4; x
// forwards y to z, and root₁ drops z. Z's removal sends Ē(Z→Y). Y's
// closure expands X, whose row Y has never received: without the guard
// X counts as having no live in-edge, and Y removes itself under x→y.
//
// Every cell of the 2×2 ablation is asserted, so the test fails when the
// guard regresses and also when the schedule stops exhibiting the hole.
// The hint switch does not matter here; churn finds the hint race (A2).
func TestConfirmationGuardCounterexample(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		skipConfirmation, noHints bool
		dangling                  int
	}{
		{"sound", false, false, 0},
		{"skip-confirmation", true, false, 1},
		{"no-hints", false, true, 0},
		{"both", true, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, x := confirmationCounterexample(t, tc.skipConfirmation, tc.noHints)
			if got := len(w.Check().Dangling); got != tc.dangling {
				t.Fatalf("dangling after z's drop = %d, want %d", got, tc.dangling)
			}

			// Dropping x makes the evidence garbage too: the end-state
			// oracle then sees a clean world in every configuration,
			// although y was freed while x still held it. Only a check at
			// the instant of removal can catch this.
			s1 := w.Site(1)
			if err := s1.DropRefs(s1.Root().Obj, x); err != nil {
				t.Fatal(err)
			}
			settle(t, w)
			if rep := w.Check(); !rep.Safe() || len(rep.Garbage) != 0 {
				t.Fatalf("after x's drop: %v, want a clean end state", rep)
			}
		})
	}
}

// confirmationCounterexample runs the schedule above under the given
// guard switches and settles after z's drop. It returns the world and
// x. TestConfirmationGuardCounterexample asserts on it, and A2's pinned
// lane counts from it.
func confirmationCounterexample(t *testing.T, skipConfirmation, noHints bool) (*World, heap.Ref) {
	t.Helper()
	opts := site.DefaultOptions()
	opts.Engine.UnsafeSkipConfirmation = skipConfirmation
	opts.Engine.UnsafeNoHints = noHints
	w := NewWorld(4, netsim.Faults{Seed: 1}, opts)
	s1, s2 := w.Site(1), w.Site(2)
	root := s1.Root().Obj
	x, err := s1.NewRemote(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	run(t, w)
	y, err := s2.NewRemote(x.Obj, 3)
	if err != nil {
		t.Fatal(err)
	}
	z, err := s1.NewRemote(root, 4)
	if err != nil {
		t.Fatal(err)
	}
	run(t, w)
	if err := s2.SendRef(x.Obj, z, y); err != nil {
		t.Fatal(err)
	}
	if err := s1.DropRefs(root, z); err != nil {
		t.Fatal(err)
	}
	settle(t, w)
	return w, x
}
