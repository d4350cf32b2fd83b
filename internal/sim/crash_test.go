package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"causalgc/internal/ids"
	"causalgc/internal/mutator"
	"causalgc/internal/netsim"
	"causalgc/internal/site"
)

// TestCrashRestartCycleRecovered is the deterministic core scenario:
// a distributed cycle is made garbage, the site holding its head is
// killed before detection converges, and the recovered site still
// drives the cycle to reclamation.
func TestCrashRestartCycleRecovered(t *testing.T) {
	w, err := newWorld(3, netsim.Faults{Seed: 11}, site.DefaultOptions(), t.TempDir(), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s1 := w.Site(1)

	a, err := s1.NewLocal(s1.Root().Obj)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s1.NewRemote(a.Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	run(t, w)
	c, err := w.Site(2).NewRemote(b.Obj, 3)
	if err != nil {
		t.Fatal(err)
	}
	run(t, w)
	if err := s1.SendRef(s1.Root().Obj, c, a); err != nil {
		t.Fatal(err)
	}
	run(t, w)
	if err := s1.DropRefs(s1.Root().Obj, a); err != nil {
		t.Fatal(err)
	}
	// Kill site 1 immediately after the drop: the destruction message
	// may or may not have left; either way recovery must finish the job.
	if err := w.Crash(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Restart(1); err != nil {
		t.Fatal(err)
	}
	settle(t, w)
	for r := 0; r < 4 && w.TotalObjects() > 3; r++ {
		refreshSettled(t, w, 1)
	}
	rep := w.Check()
	if !rep.Safe() {
		t.Fatalf("unsafe after crash recovery: %v", rep)
	}
	if len(rep.Garbage) != 0 || w.TotalObjects() != 3 {
		t.Fatalf("cycle not reclaimed after crash recovery: %v (%d objects)", rep, w.TotalObjects())
	}
}

// TestCrashRestartFuzz is the seeded kill-and-restart fault scenario:
// random churn interleaved with crashes and recoveries of random sites
// at random points, cross-checked against the reachability oracle, at
// every width of crashWidths. The
// invariant is unconditional safety — the oracle must never observe a
// live object reclaimed (a dangling reference), no matter where the
// crashes land. Liveness after healing is checked best-effort: crashes
// legitimately lose control traffic, and refresh rounds must win it
// back.
func TestCrashRestartFuzz(t *testing.T) {
	for _, shards := range crashWidths {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { crashRestartFuzz(t, shards) })
	}
}

// crashWidths are the stripe widths the crash batteries run at: the
// default and a genuinely striped site.
var crashWidths = []int{1, 3}

func crashRestartFuzz(t *testing.T, shards int) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		w, err := newWorld(4, netsim.Faults{Seed: seed, Reorder: true}, site.DefaultOptions(), t.TempDir(), 16, shards)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 101))
		for round := 0; round < 6; round++ {
			if _, err := mutator.Churn(w, mutator.ChurnConfig{
				Seed: seed*1000 + int64(round), Ops: 40, StepsBetweenOps: 3,
			}); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			// Deliver a random fraction of the backlog, then kill a random
			// site mid-flight and bring it back.
			for i := rng.Intn(40); i > 0 && w.Step(); i-- {
			}
			victim := ids.SiteID(1 + rng.Intn(4))
			if err := w.Crash(victim); err != nil {
				t.Fatalf("seed %d round %d: crash %v: %v", seed, round, victim, err)
			}
			if err := w.Restart(victim); err != nil {
				t.Fatalf("seed %d round %d: restart %v: %v", seed, round, victim, err)
			}
			if err := w.Run(); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			if rep := w.Check(); !rep.Safe() {
				t.Fatalf("seed %d round %d: SAFETY VIOLATION after crash/restart of %v: %v",
					seed, round, victim, rep)
			}
		}
		// Heal: settle and refresh until quiescent, then re-check safety.
		settle(t, w)
		refreshSettled(t, w, 6)
		rep := w.Check()
		if !rep.Safe() {
			t.Fatalf("seed %d: SAFETY VIOLATION after healing: %v", seed, rep)
		}
		t.Logf("seed %d: healed with %d live, %d residual garbage", seed, rep.Live, len(rep.Garbage))
		w.Close()
	}
}

// TestCrashAtEveryPoint kills and recovers one site after every single
// mutator operation of a short scripted workload, checking safety at
// each crash point: the systematic sweep over crash instants, at every
// width of crashWidths.
func TestCrashAtEveryPoint(t *testing.T) {
	for _, shards := range crashWidths {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { crashAtEveryPoint(t, shards) })
	}
}

func crashAtEveryPoint(t *testing.T, shards int) {
	// The scripted workload has 6 operations; crash after each.
	for point := 0; point < 6; point++ {
		w, err := newWorld(3, netsim.Faults{Seed: int64(point + 1)}, site.DefaultOptions(), t.TempDir(), 4, shards)
		if err != nil {
			t.Fatal(err)
		}
		step := 0
		maybeCrash := func(victim ids.SiteID) {
			if step == point {
				if err := w.Crash(victim); err != nil {
					t.Fatal(err)
				}
				if err := w.Restart(victim); err != nil {
					t.Fatal(err)
				}
			}
			step++
		}
		s1 := w.Site(1)
		a, err := s1.NewLocal(s1.Root().Obj)
		if err != nil {
			t.Fatal(err)
		}
		maybeCrash(1)
		s1 = w.Site(1)
		b, err := s1.NewRemote(a.Obj, 2)
		if err == nil {
			maybeCrash(1)
		} else {
			step++
		}
		w.Run()
		s1 = w.Site(1)
		if err := s1.SendRef(a.Obj, b, a); err == nil {
			maybeCrash(2)
		} else {
			step++
		}
		w.Run()
		maybeCrash(1)
		s1 = w.Site(1)
		_ = s1.DropRefs(s1.Root().Obj, a)
		maybeCrash(2)
		w.Run()
		maybeCrash(1)

		settle(t, w)
		refreshSettled(t, w, 4)
		rep := w.Check()
		if !rep.Safe() {
			t.Fatalf("crash point %d: unsafe: %v", point, rep)
		}
		w.Close()
	}
}

// TestCrashHealsLostRetirements: a site journals no acknowledgement,
// so a crash forgets every retirement since its last snapshot. The
// retired rows come back retained, recovery's own refresh round
// re-sends them, and the peer settles each as a duplicate and
// acknowledges it again — the lost-ack path of DESIGN.md §3.2 — leaving
// both sites where they were.
func TestCrashHealsLostRetirements(t *testing.T) {
	w, err := newWorld(2, netsim.Faults{Seed: 1}, site.DefaultOptions(), t.TempDir(), 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s1 := w.Site(1)
	root := s1.Root().Obj
	for i := 0; i < 64; i++ {
		ref, err := s1.NewRemote(root, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := s1.DropRefs(root, ref); err != nil {
			t.Fatal(err)
		}
	}
	run(t, w)
	for _, s := range w.Sites() {
		if d := s.Depths(); d != (site.Depths{}) {
			t.Fatalf("site %v before the crash: %+v retained, want every row acknowledged", s.ID(), d)
		}
	}
	objects := w.Site(2).NumObjects()

	if err := w.Crash(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Restart(1); err != nil {
		t.Fatal(err)
	}
	if d := w.Site(1).Depths(); d.Outbox != 64 || d.DestroyRows != 64 {
		t.Fatalf("right after the restart site 1 retains %+v, want the 64 creations and 64 destroys whose acks the crash forgot", d)
	}
	run(t, w)
	for _, s := range w.Sites() {
		if d := s.Depths(); d != (site.Depths{}) {
			t.Errorf("site %v after the re-sends: %+v retained, want 0", s.ID(), d)
		}
	}
	if got := w.Site(2).NumObjects(); got != objects {
		t.Errorf("site 2 holds %d objects after the re-sends, %d before the crash", got, objects)
	}
	if rep := w.Check(); !rep.Clean() {
		t.Fatalf("oracle: %v", rep)
	}
}
