package sim

import (
	"testing"

	"causalgc/internal/mutator"
	"causalgc/internal/netsim"
	"causalgc/internal/oracle"
	"causalgc/internal/site"
	"causalgc/internal/wire"
)

// TestLeakDeadIntroductionExpired is the "lost assert, live receiver"
// leak scenario: a reference is forwarded to a holder object that was
// collected before the transfer arrives, so the edge never forms and the
// edge-assert that would resolve the introduction hint never exists. The
// receiving site must expire the introduction (negative assert) instead
// of parking the frame forever; without expiry the hint pins the target
// as residual garbage no refresh can recover.
func TestLeakDeadIntroductionExpired(t *testing.T) {
	w, rep := leakDeadIntroduction(t)
	if !rep.Safe() {
		t.Fatalf("unsafe: %v", rep)
	}
	// One bounded refresh round must finish the job in any case.
	if rep = recoverResidual(t, w, rep, 1); len(rep.Garbage) != 0 {
		t.Fatalf("dead introduction pinned residual garbage: %v", rep)
	}
	st := w.Site(2).EngineStats()
	if st.AssertsSent == 0 {
		t.Error("no resolution assert issued for the dead introduction")
	}
}

// leakDeadIntroduction runs the dead-introduction schedule and returns
// the world and the oracle's report once it has settled after tgt's
// drop. TestLeakDeadIntroductionExpired asserts on it, and E9 counts
// from it.
func leakDeadIntroduction(t *testing.T) (*World, oracle.Report) {
	t.Helper()
	w := NewWorld(3, netsim.Faults{Seed: 1}, site.DefaultOptions())
	s1 := w.Site(1)
	x, err := s1.NewRemote(s1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := s1.NewRemote(s1.Root().Obj, 3)
	if err != nil {
		t.Fatal(err)
	}
	run(t, w)

	// x becomes garbage and is collected on site 2.
	if err := s1.DropRefs(s1.Root().Obj, x); err != nil {
		t.Fatal(err)
	}
	settle(t, w)
	if !w.Site(2).ClusterRemoved(x.Cluster) {
		t.Fatal("x not collected")
	}

	// The mutator still holds x's identity and forwards tgt's reference
	// to it: the transfer reaches site 2 only after x's collection — a
	// provably dead introduction.
	if err := s1.SendRef(s1.Root().Obj, x, tgt); err != nil {
		t.Fatal(err)
	}
	run(t, w)

	// Drop the root's own reference: tgt is garbage. The destroy bundle
	// arms the introduction hint (x, root1, seq) at tgt; only the expiry
	// bound recorded by site 2's negative assert lets the verdict fire.
	if err := s1.DropRefs(s1.Root().Obj, tgt); err != nil {
		t.Fatal(err)
	}
	settle(t, w)
	return w, w.Check()
}

// TestLeakLostAssertCrashedReceiver is the "lost assert, crashed
// receiver" scenario: the hint owner's site is killed while the
// edge-assert is in flight (the crash drops it), and killed again while
// the asserting cluster's finalisation destroy — the other resolution
// carrier — is in flight. Recovery plus bounded refresh rounds must
// still drive residual garbage to zero: the journaled re-send and the
// retained finalisation bundle are exactly what survives the crashes.
func TestLeakLostAssertCrashedReceiver(t *testing.T) {
	w, rep := leakLostAssertCrashedReceiver(t)
	if !rep.Safe() {
		t.Fatalf("unsafe: %v", rep)
	}

	// Bounded recovery: refresh rounds re-ship the retained bundles and
	// journaled asserts until the hint resolves and tgt is reclaimed.
	rep = recoverResidual(t, w, rep, 3)
	if !rep.Safe() {
		t.Fatalf("unsafe after recovery: %v", rep)
	}
	if len(rep.Garbage) != 0 {
		t.Fatalf("lost assert + crashed receiver pinned residual garbage: %v", rep)
	}
}

// leakLostAssertCrashedReceiver runs the crashed-receiver schedule on
// durable sites and returns the world and the oracle's report once it
// has settled after tgt's drop. TestLeakLostAssertCrashedReceiver
// asserts on it, and E9 counts from it.
func leakLostAssertCrashedReceiver(t *testing.T) (*World, oracle.Report) {
	t.Helper()
	w, err := newWorld(3, netsim.Faults{Seed: 7}, site.DefaultOptions(), t.TempDir(), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	s1 := w.Site(1)
	x, err := s1.NewRemote(s1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := s1.NewRemote(s1.Root().Obj, 3)
	if err != nil {
		t.Fatal(err)
	}
	run(t, w)

	// Crash the hint owner's site, then forward tgt's reference to x:
	// the transfer (application traffic) is delivered, x forms the edge
	// x→tgt, and its edge-assert to the dead site is dropped.
	if err := w.Crash(3); err != nil {
		t.Fatal(err)
	}
	if err := s1.SendRef(s1.Root().Obj, x, tgt); err != nil {
		t.Fatal(err)
	}
	run(t, w)
	if err := w.Restart(3); err != nil {
		t.Fatal(err)
	}

	// Make x garbage and let site 2 remove it; its finalisation destroy
	// to tgt — carrying the processed-introduction record — is eaten by
	// a second crash of site 3.
	if err := s1.DropRefs(s1.Root().Obj, x); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DefaultStepBudget && !w.Site(2).ClusterRemoved(x.Cluster); i++ {
		if !w.Step() {
			break
		}
	}
	if !w.Site(2).ClusterRemoved(x.Cluster) {
		t.Fatal("x not removed")
	}
	if err := w.Crash(3); err != nil {
		t.Fatal(err)
	}
	if err := w.Restart(3); err != nil {
		t.Fatal(err)
	}

	// Now make tgt garbage: the root's destroy bundle arms the hint
	// (x, root1, seq) at tgt, while tgt has no word from x at all.
	if err := s1.DropRefs(s1.Root().Obj, tgt); err != nil {
		t.Fatal(err)
	}
	settle(t, w)
	return w, w.Check()
}

// TestChurnLostAssertSchedules is the seeded fuzz lane over lost-assert
// schedules: randomised churn while most edge-asserts (and half the
// acks) are dropped. Safety must hold unconditionally; after healing, a
// bounded number of refresh rounds must reclaim every residual object —
// the assert re-send journal converging despite the lossy ack channel.
func TestChurnLostAssertSchedules(t *testing.T) {
	seeds := int64(15)
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(1); seed <= seeds; seed++ {
		w := NewWorld(5, netsim.Faults{
			Seed:    seed,
			Reorder: true,
			DropKindProb: map[string]float64{
				wire.KindAssert:   0.8,
				wire.KindFrameAck: 0.5,
			},
		}, site.DefaultOptions())
		if _, err := mutator.Churn(w, mutator.ChurnConfig{
			Seed:            seed * 23,
			Ops:             200,
			StepsBetweenOps: 2,
		}); err != nil {
			t.Fatalf("seed %d: churn: %v", seed, err)
		}
		if err := w.Settle(); err != nil {
			t.Fatalf("seed %d: settle: %v", seed, err)
		}
		rep := w.Check()
		if !rep.Safe() {
			t.Fatalf("seed %d: SAFETY violation under assert loss: %v", seed, rep)
		}

		// Heal the assert channel and recover.
		w.Net().SetDropKindProb(wire.KindAssert, 0)
		w.Net().SetDropKindProb(wire.KindFrameAck, 0)
		for i := 0; i < 3; i++ {
			if err := w.RefreshAll(); err != nil {
				t.Fatalf("seed %d: refresh: %v", seed, err)
			}
			if err := w.Settle(); err != nil {
				t.Fatalf("seed %d: settle: %v", seed, err)
			}
		}
		rep = w.Check()
		if !rep.Safe() {
			t.Fatalf("seed %d: SAFETY violation after recovery: %v", seed, rep)
		}
		if len(rep.Garbage) != 0 {
			t.Errorf("seed %d: residual garbage after healed refresh rounds: %v", seed, rep)
		}
	}
}

// TestLeakExpiryThenFreshIntroduction pins the safety invariant the
// expiry rule rests on: an expired introduction must never mask a
// genuinely newer one. After a dead introduction of a site-2 edge to
// tgt expires, a fresh site-2 holder receives tgt's reference — the new
// edge must arm and resolve normally, and tgt must stay alive while it
// is held.
func TestLeakExpiryThenFreshIntroduction(t *testing.T) {
	w := NewWorld(3, netsim.Faults{Seed: 3}, site.DefaultOptions())
	s1 := w.Site(1)
	x, err := s1.NewRemote(s1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := s1.NewRemote(s1.Root().Obj, 3)
	if err != nil {
		t.Fatal(err)
	}
	run(t, w)
	// Dead introduction: x collected, then the stale forward arrives.
	if err := s1.DropRefs(s1.Root().Obj, x); err != nil {
		t.Fatal(err)
	}
	settle(t, w)
	if err := s1.SendRef(s1.Root().Obj, x, tgt); err != nil {
		t.Fatal(err)
	}
	run(t, w)
	// A fresh holder on site 2 receives tgt's reference: a genuinely new
	// introduction of a site-2 edge to tgt, with a higher forwarding seq.
	y, err := s1.NewRemote(s1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	run(t, w)
	if err := s1.SendRef(s1.Root().Obj, y, tgt); err != nil {
		t.Fatal(err)
	}
	run(t, w)
	// tgt must stay alive while y holds it, and be reclaimed once the
	// whole chain is dropped.
	if err := s1.DropRefs(s1.Root().Obj, tgt); err != nil {
		t.Fatal(err)
	}
	settle(t, w)
	rep := w.Check()
	if !rep.Safe() {
		t.Fatalf("unsafe: %v", rep)
	}
	if !w.Site(3).HasObject(tgt.Obj) {
		t.Fatal("tgt collected while y holds a live reference (UNSAFE)")
	}
	if err := s1.DropRefs(s1.Root().Obj, y); err != nil {
		t.Fatal(err)
	}
	settle(t, w)
	rep = w.Check()
	if !rep.Safe() || len(rep.Garbage) != 0 {
		t.Fatalf("chain not reclaimed: %v", rep)
	}
}
