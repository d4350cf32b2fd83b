package core

import (
	"testing"

	"causalgc/internal/ids"
	"causalgc/internal/vclock"
)

// fakeSender records outgoing control messages and assigns stream
// sequences from one counter per stream (the real site runtime keys its
// counters per destination site as well; a single-peer test does not
// care).
type fakeSender struct {
	destroys []sentDestroy
	props    []sentMsg
	asserts  []sentAssert
	settles  []settledFrame
	seqs     map[Stream]uint64
}

type sentMsg struct {
	from, to ids.ClusterID
}

type sentDestroy struct {
	from, to ids.ClusterID
	m        DestroyMsg
	seq      uint64
}

type sentAssert struct {
	from, to ids.ClusterID
	m        AssertMsg
	seq      uint64
}

type settledFrame struct {
	peer   ids.SiteID
	stream Stream
	seq    uint64
}

func (f *fakeSender) assign(s Stream, seq uint64) uint64 {
	if seq != 0 {
		return seq
	}
	if f.seqs == nil {
		f.seqs = make(map[Stream]uint64)
	}
	f.seqs[s]++
	return f.seqs[s]
}

func (f *fakeSender) SendDestroy(from, to ids.ClusterID, m DestroyMsg, seq uint64) uint64 {
	seq = f.assign(StreamDestroy, seq)
	f.destroys = append(f.destroys, sentDestroy{from, to, m, seq})
	return seq
}

func (f *fakeSender) SendPropagate(from, to ids.ClusterID, _ Propagation) {
	f.props = append(f.props, sentMsg{from, to})
}

func (f *fakeSender) SendAssert(from, to ids.ClusterID, m AssertMsg, seq uint64) uint64 {
	seq = f.assign(StreamAssert, seq)
	f.asserts = append(f.asserts, sentAssert{from, to, m, seq})
	return seq
}

func (f *fakeSender) SettleFrame(peer ids.SiteID, stream Stream, seq uint64) {
	f.settles = append(f.settles, settledFrame{peer, stream, seq})
}

var _ Sender = (*fakeSender)(nil)

var (
	r1  = ids.ClusterID{Site: 1, Seq: 1, Root: true}
	cA  = ids.ClusterID{Site: 1, Seq: 2}
	cB  = ids.ClusterID{Site: 1, Seq: 3}
	rem = ids.ClusterID{Site: 2, Seq: 1}
)

func newEngine(t *testing.T, opts Options) (*Engine, *fakeSender, *[]ids.ClusterID) {
	t.Helper()
	fs := &fakeSender{}
	var removed []ids.ClusterID
	e := New(1, fs, func(cl ids.ClusterID) { removed = append(removed, cl) }, opts)
	return e, fs, &removed
}

func TestEngineRegisterIdempotentAndTombstoned(t *testing.T) {
	e, _, _ := newEngine(t, Options{})
	e.Register(cA)
	if !e.Registered(cA) {
		t.Fatal("not registered")
	}
	e.Register(cA) // no-op
	if got := len(e.Processes()); got != 1 {
		t.Fatalf("Processes = %d", got)
	}
	// Make it garbage: no edges at all → first delivery removes it.
	e.HandleDestroy(cA, r1, DestroyMsg{Auth: vclock.Vector{r1: vclock.Eps(1)}})
	if !e.Removed(cA) {
		t.Fatal("unreferenced cluster not removed")
	}
	e.Register(cA)
	if e.Registered(cA) {
		t.Fatal("tombstoned cluster re-registered")
	}
}

func TestEngineRegisterForeignPanics(t *testing.T) {
	e, _, _ := newEngine(t, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Register(rem)
}

func TestEngineLocalEdgeLifecycle(t *testing.T) {
	e, _, removed := newEngine(t, Options{})
	e.Register(r1)
	e.Register(cA)
	e.EdgeUp(r1, cA, true, ids.NoCluster, 0)
	e.Drain()
	if e.Removed(cA) {
		t.Fatal("live cluster removed")
	}
	if got := e.Acquaintances(r1); len(got) != 1 || got[0] != cA {
		t.Fatalf("Acquaintances = %v", got)
	}
	// The stamp landed directly in cA's own vector (same site).
	if got := e.LogSnapshot(cA).Own().Get(r1); !got.Live() {
		t.Fatalf("own[r1] = %v, want live", got)
	}
	e.EdgeDown(r1, cA)
	e.Drain()
	if !e.Removed(cA) {
		t.Fatal("dead cluster not removed")
	}
	if len(*removed) != 1 || (*removed)[0] != cA {
		t.Fatalf("onRemove calls = %v", *removed)
	}
	if e.Clock(cA) == 0 {
		t.Error("tombstone clock lost")
	}
}

func TestEngineLocalCascade(t *testing.T) {
	// r1 → A → B: dropping r1→A removes A, whose finalisation removes B.
	e, _, removed := newEngine(t, Options{})
	e.Register(r1)
	e.Register(cA)
	e.Register(cB)
	e.EdgeUp(r1, cA, true, ids.NoCluster, 0)
	e.EdgeUp(cA, cB, true, ids.NoCluster, 0)
	e.Drain()
	e.EdgeDown(r1, cA)
	e.Drain()
	if !e.Removed(cA) || !e.Removed(cB) {
		t.Fatalf("cascade incomplete: removed=%v", *removed)
	}
	st := e.Stats()
	if st.Removed != 2 {
		t.Errorf("Stats.Removed = %d, want 2", st.Removed)
	}
}

func TestEngineRemoteEdgeUpSendsAssert(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	e.Register(cA)
	intro := ids.ClusterID{Site: 3, Seq: 9}
	e.EdgeUp(cA, rem, true, intro, 7)
	if len(fs.asserts) != 1 {
		t.Fatalf("asserts = %+v, want 1", fs.asserts)
	}
	a := fs.asserts[0]
	if a.from != cA || a.to != rem || a.m.Intro != intro || a.m.IntroSeq != 7 {
		t.Errorf("assert = %+v", a)
	}
	// Non-first re-add: no assert.
	e.EdgeUp(cA, rem, false, intro, 8)
	if len(fs.asserts) != 1 {
		t.Errorf("re-add sent an assert")
	}
	// Creation sentinel: no assert.
	e.EdgeUp(cA, ids.ClusterID{Site: 2, Seq: 5}, true, ids.NoCluster, ids.CreationSeq)
	if len(fs.asserts) != 1 {
		t.Errorf("creation sent an assert")
	}
}

func TestEngineEdgeDownShipsBundle(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	e.Register(cA)
	e.EdgeUp(cA, rem, true, ids.NoCluster, 0)
	seq := e.SentRef(cA, rem, cB) // cA forwards rem's ref to cB
	if seq == 0 {
		t.Fatal("SentRef returned 0")
	}
	ob := e.LogSnapshot(cA).PeekOB(rem)
	if ob == nil || !ob.Hints.Get(cB).Live() {
		t.Fatalf("forward hint not recorded: %+v", ob)
	}
	e.EdgeDown(cA, rem)
	e.Drain()
	if len(fs.destroys) != 1 || fs.destroys[0].to != rem {
		t.Fatalf("destroys = %+v", fs.destroys)
	}
}

func TestEngineHandleAssertResolvesHint(t *testing.T) {
	e, _, _ := newEngine(t, Options{})
	e.Register(cA)
	// cA hears (via a bundle) that rem may reference it, introduced by cB
	// at seq 5: pending hint blocks a garbage verdict.
	e.HandleDestroy(cA, cB, DestroyMsg{
		Auth:  vclock.Vector{cB: vclock.Eps(3)},
		Hints: vclock.Vector{rem: vclock.At(5)},
	})
	if e.Removed(cA) {
		t.Fatal("removed with a pending introduction hint (UNSAFE)")
	}
	// rem's assert resolves the hint with a live stamp: still alive.
	e.HandleAssertFrame(cA, rem, AssertMsg{Stamp: 9, Intro: cB, IntroSeq: 5}, 0)
	if e.Removed(cA) {
		t.Fatal("removed while rem holds a live edge")
	}
	if got := e.LogSnapshot(cA).Own().Get(rem); got != vclock.At(9) {
		t.Fatalf("own[rem] = %v, want 9", got)
	}
	// rem destroys its edge: now cA is garbage.
	e.HandleDestroy(cA, rem, DestroyMsg{Auth: vclock.Vector{rem: vclock.Eps(10)}})
	if !e.Removed(cA) {
		t.Fatal("not removed after all edges destroyed")
	}
}

func TestEngineConfirmationGuardBlocksRemoval(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	e.Register(cA)
	// cA's only edge is from the (unconfirmed) remote cluster: a destroy
	// from a root leaves a live non-root predecessor with unknown
	// ancestry — removal must be blocked; a propagation must go out
	// asking the world (via cA's successors, none here).
	e.HandleDestroy(cA, r1, DestroyMsg{Auth: vclock.Vector{
		r1:  vclock.Eps(4),
		rem: vclock.At(2), // bundled: edge rem→cA exists
	}})
	if e.Removed(cA) {
		t.Fatal("removed with unconfirmed live predecessor (UNSAFE)")
	}
	// rem's propagation confirms its row: rootless → garbage.
	e.HandlePropagate(cA, rem, Propagation{Clock: 3, Auth: vclock.NewVector()})
	if !e.Removed(cA) {
		t.Fatal("not removed after predecessor confirmed rootless")
	}
	_ = fs
}

func TestEngineConfirmedLiveRootKeepsAlive(t *testing.T) {
	e, _, _ := newEngine(t, Options{})
	e.Register(cA)
	e.HandleDestroy(cA, r1, DestroyMsg{Auth: vclock.Vector{
		r1:  vclock.Eps(4),
		rem: vclock.At(2),
	}})
	// rem's propagation shows rem is itself root-referenced.
	root2 := ids.ClusterID{Site: 2, Seq: 1, Root: true}
	e.HandlePropagate(cA, rem, Propagation{
		Clock: 3,
		Auth:  vclock.Vector{root2: vclock.At(1)},
	})
	if e.Removed(cA) {
		t.Fatal("removed despite a confirmed live root path (UNSAFE)")
	}
}

func TestEngineDuplicateDestroyIdempotent(t *testing.T) {
	e, _, _ := newEngine(t, Options{})
	e.Register(r1)
	e.Register(cA)
	e.EdgeUp(r1, cA, true, ids.NoCluster, 0)
	e.Drain()
	m := DestroyMsg{Auth: vclock.Vector{rem: vclock.Eps(5)}}
	e.HandleDestroy(cA, rem, m)
	clock := e.Clock(cA)
	e.HandleDestroy(cA, rem, m) // duplicate
	if got := e.Clock(cA); got != clock {
		t.Errorf("duplicate destroy bumped the clock: %d -> %d", clock, got)
	}
}

func TestEngineStaleDeliveriesCounted(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	ghost := ids.ClusterID{Site: 2, Seq: 99}
	// Foreign-site target: never buffered, dropped as stale.
	e.HandleDestroy(ghost, r1, DestroyMsg{})
	if got := e.Stats().StaleDeliveries; got != 1 {
		t.Errorf("StaleDeliveries = %d, want 1", got)
	}
	// EdgeUp/SentRef/EdgeDown on unknown foreign holders are stale too.
	e.EdgeUp(ghost, rem, true, ids.NoCluster, 0)
	e.SentRef(ghost, rem, cA)
	e.EdgeDown(ghost, rem)
	if got := e.Stats().StaleDeliveries; got != 4 {
		t.Errorf("StaleDeliveries = %d, want 4", got)
	}
	// An owned unknown holder is not stale: its creation message is still
	// in flight (the site built its object from an early transfer), so the
	// process exists unborn, the edge is stamped on it and the assert
	// leaves at once.
	e.EdgeUp(cB, rem, true, r1, 7)
	if got := e.Stats().StaleDeliveries; got != 4 {
		t.Errorf("StaleDeliveries = %d after an owned early holder's EdgeUp, want 4", got)
	}
	if e.Registered(cB) || e.Retained().PendingDeliveries != 1 {
		t.Errorf("early holder: registered=%v unborn=%d, want one unborn process", e.Registered(cB), e.Retained().PendingDeliveries)
	}
	if acq := e.Acquaintances(cB); e.Clock(cB) != 1 || len(acq) != 1 || acq[0] != rem {
		t.Errorf("early holder: clock %d, acquaintances %v; want the edge stamped at 1", e.Clock(cB), e.Acquaintances(cB))
	}
	want := sentAssert{from: cB, to: rem, m: AssertMsg{Stamp: 1, Intro: r1, IntroSeq: 7}, seq: 1}
	if len(fs.asserts) != 1 || fs.asserts[0] != want {
		t.Errorf("early holder's asserts = %+v, want %+v", fs.asserts, want)
	}
	// SentRef and EdgeDown reach an early holder the same way — even one
	// whose first event is sending its own reference (no edge, no earlier
	// mention): the hint protecting the pending edge must be armed.
	early := ids.ClusterID{Site: 1, Seq: 9}
	if seq := e.SentRef(early, early, rem); seq != 1 || e.Retained().PendingDeliveries != 2 {
		t.Errorf("early holder's own reference: forwarding seq %d, unborn %d; want 1 and 2", seq, e.Retained().PendingDeliveries)
	}
	e.EdgeDown(cB, rem)
	if got := e.Stats().StaleDeliveries; got != 4 || len(fs.destroys) != 1 {
		t.Errorf("early holder's EdgeDown: StaleDeliveries %d, bundles sent %d; want 4 and 1", got, len(fs.destroys))
	}
	// A tombstoned holder stays stale.
	e.Register(cA)
	e.remove(e.procs[cA])
	e.EdgeUp(cA, rem, true, ids.NoCluster, 0)
	if got := e.Stats().StaleDeliveries; got != 5 {
		t.Errorf("StaleDeliveries = %d after a removed holder's EdgeUp, want 5", got)
	}
}

func TestEngineEarlyMessageBuffered(t *testing.T) {
	// A destroy racing ahead of the local cluster's creation must be
	// buffered and replayed on Register, not dropped.
	e, _, _ := newEngine(t, Options{})
	e.HandleDestroy(cA, rem, DestroyMsg{Auth: vclock.Vector{rem: vclock.Eps(5)}})
	if e.Stats().StaleDeliveries != 0 {
		t.Fatal("early local-cluster message dropped instead of buffered")
	}
	e.Register(cA)
	e.HandleCreate(cA, rem, 2) // creation arrives late
	e.Drain()
	// The buffered Ē(5) must supersede the creation stamp At(2).
	if e.Registered(cA) {
		if got := e.LogSnapshot(cA).Own().Get(rem); got != vclock.Eps(5) {
			t.Fatalf("own[rem] = %v, want Ē5", got)
		}
	}
}

func TestEngineRootsNeverRemoved(t *testing.T) {
	e, _, _ := newEngine(t, Options{})
	e.Register(r1)
	e.Refresh()
	e.Evaluate(r1)
	if e.Removed(r1) {
		t.Fatal("actual root removed")
	}
}

func TestEngineSelfRefSendArmsOwnHint(t *testing.T) {
	e, _, _ := newEngine(t, Options{})
	e.Register(cA)
	seq := e.SentRef(cA, cA, rem) // cA sends its own reference to rem
	if seq == 0 {
		t.Fatal("seq = 0")
	}
	if !e.LogSnapshot(cA).Hints().Has(rem) {
		t.Fatal("self-introduction hint not armed")
	}
	// rem's assert resolves it.
	e.HandleAssertFrame(cA, rem, AssertMsg{Stamp: 4, Intro: cA, IntroSeq: seq}, 0)
	if e.LogSnapshot(cA).Hints().Has(rem) {
		t.Fatal("hint not resolved by assert")
	}
}

func TestEngineUnsafeNoHintsSkipsMechanism(t *testing.T) {
	e, fs, _ := newEngine(t, Options{UnsafeNoHints: true})
	e.Register(cA)
	e.EdgeUp(cA, rem, true, cB, 3)
	if len(fs.asserts) != 0 {
		t.Errorf("asserts sent with UnsafeNoHints: %+v", fs.asserts)
	}
	e.SentRef(cA, cA, rem)
	if e.LogSnapshot(cA).Hints() != nil && !e.LogSnapshot(cA).Hints().Empty() {
		t.Error("hints armed with UnsafeNoHints")
	}
}

func TestEngineAssertJournaledAndResentUntilAck(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	e.Register(r1)
	e.Register(cA)
	e.EdgeUp(r1, cA, true, ids.NoCluster, 0) // keep cA alive across refreshes
	e.Drain()
	intro := ids.ClusterID{Site: 3, Seq: 9}
	e.EdgeUp(cA, rem, true, intro, 7)
	if len(fs.asserts) != 1 {
		t.Fatalf("asserts = %+v, want 1", fs.asserts)
	}
	first := fs.asserts[0]
	// The assert was lost: every refresh round re-ships it verbatim.
	for i := 0; i < 2; i++ {
		e.Refresh()
		if got := len(fs.asserts); got != 2+i {
			t.Fatalf("after refresh %d: asserts = %d, want %d", i+1, got, 2+i)
		}
		if re := fs.asserts[len(fs.asserts)-1]; re != first {
			t.Fatalf("re-sent assert %+v != original %+v", re, first)
		}
	}
	if got := e.Stats().AssertResends; got != 2 {
		t.Errorf("AssertResends = %d, want 2", got)
	}
	// The owner site's cumulative ack retires the journal row: no
	// further re-sends.
	if got := e.Ack(rem.Site, StreamAssert, first.seq); got != 1 {
		t.Fatalf("AckAsserts retired %d rows, want 1", got)
	}
	n := len(fs.asserts)
	e.Refresh()
	if len(fs.asserts) != n {
		t.Fatalf("re-sent after ack: %+v", fs.asserts[n:])
	}
}

// TestEngineAssertJournalRetainedUntilAcked: an edge's destruction does
// not retire its assert row. The row stays, is re-sent under its own
// sequence (the Ē that followed dominates its stamp at the owner), and
// leaves only when the owner's site acknowledges it.
func TestEngineAssertJournalRetainedUntilAcked(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	e.Register(r1)
	e.Register(cA)
	e.EdgeUp(r1, cA, true, ids.NoCluster, 0) // keep cA alive
	e.EdgeUp(cA, rem, true, cB, 3)
	e.EdgeDown(cA, rem)
	e.Drain()
	if len(fs.asserts) != 1 {
		t.Fatalf("asserts = %+v, want 1", fs.asserts)
	}
	first := fs.asserts[0]
	e.Refresh()
	if got := len(fs.asserts); got != 2 || fs.asserts[1] != first {
		t.Fatalf("asserts after refresh = %+v, want %+v re-sent once", fs.asserts, first)
	}
	if got := e.Retained().AssertRows; got != 1 {
		t.Fatalf("AssertRows = %d after the edge's destruction, want 1", got)
	}
	if n := e.Ack(rem.Site, StreamAssert, first.seq); n != 1 {
		t.Fatalf("Ack retired %d rows, want 1", n)
	}
	n := len(fs.asserts)
	for i := 0; i < 4; i++ {
		e.Refresh()
	}
	if len(fs.asserts) != n {
		t.Fatalf("acknowledged assert re-sent: %+v", fs.asserts[n:])
	}
}

func TestEngineAssertToTombstoneSettled(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	e.Register(cA)
	e.HandleDestroy(cA, r1, DestroyMsg{Auth: vclock.Vector{r1: vclock.Eps(1)}})
	if !e.Removed(cA) {
		t.Fatal("cA not removed")
	}
	// A (re-sent) assert addressed to the tombstone must still settle —
	// the tombstone's word is final — or the asserter would re-send
	// forever.
	e.HandleAssertFrame(cA, rem, AssertMsg{Stamp: 4, Intro: cB, IntroSeq: 2}, 5)
	if len(fs.settles) != 1 {
		t.Fatalf("settles = %+v, want 1", fs.settles)
	}
	if s := fs.settles[0]; s.peer != rem.Site || s.stream != StreamAssert || s.seq != 5 {
		t.Errorf("settle = %+v", s)
	}
}

func TestEngineAssertProcessingSettles(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	e.Register(cA)
	e.HandleAssertFrame(cA, rem, AssertMsg{Stamp: 4, Intro: cB, IntroSeq: 2}, 5)
	if len(fs.settles) != 1 || fs.settles[0].seq != 5 {
		t.Fatalf("settles = %+v, want one for seq 5", fs.settles)
	}
	// Duplicate delivery: idempotent, settled again (the receiver site
	// re-acks the unchanged watermark, healing a lost FrameAck).
	e.HandleAssertFrame(cA, rem, AssertMsg{Stamp: 4, Intro: cB, IntroSeq: 2}, 5)
	if len(fs.settles) != 2 {
		t.Fatalf("duplicate assert not re-settled: %+v", fs.settles)
	}
	// Untracked frames (seq 0) settle nothing.
	e.HandleAssertFrame(cA, rem, AssertMsg{Stamp: 4, Intro: cB, IntroSeq: 2}, 0)
	if len(fs.settles) != 2 {
		t.Fatalf("untracked assert settled: %+v", fs.settles)
	}
}

func TestEngineNegativeAssertExpiresHint(t *testing.T) {
	e, _, _ := newEngine(t, Options{})
	e.Register(cA)
	// A bundle arms hint (rem, cB, 5): rem may be about to reference cA.
	e.HandleDestroy(cA, cB, DestroyMsg{
		Auth:  vclock.Vector{cB: vclock.Eps(3)},
		Hints: vclock.Vector{rem: vclock.At(5)},
	})
	if e.Removed(cA) {
		t.Fatal("removed with a pending hint (UNSAFE)")
	}
	// rem's site reports the introduction dead: stampless assert.
	e.HandleAssertFrame(cA, rem, AssertMsg{Stamp: 0, Intro: cB, IntroSeq: 5}, 0)
	if got := e.Stats().HintsExpired; got != 1 {
		t.Errorf("HintsExpired = %d, want 1", got)
	}
	// No liveness was claimed and the hint is gone: cA is garbage now.
	if !e.Removed(cA) {
		t.Fatal("not removed after the pinning hint expired")
	}
}

func TestEngineExpiryBoundSuppressesStaleRearm(t *testing.T) {
	e, _, _ := newEngine(t, Options{})
	e.Register(r1)
	e.Register(cA)
	e.EdgeUp(r1, cA, true, ids.NoCluster, 0) // keep cA alive
	e.Drain()
	// Expiry arrives before the (stale, gossiped) arming.
	e.HandleAssertFrame(cA, rem, AssertMsg{Stamp: 0, Intro: cB, IntroSeq: 5}, 0)
	e.HandleDestroy(cA, cB, DestroyMsg{
		Auth:  vclock.Vector{cB: vclock.Eps(3)},
		Hints: vclock.Vector{rem: vclock.At(5)},
	})
	if e.LogSnapshot(cA).Hints().Has(rem) {
		t.Fatal("expired introduction re-armed by stale gossip")
	}
	// A genuinely fresher forwarding (seq 6 > bound 5) still arms.
	e.HandleDestroy(cA, cB, DestroyMsg{Hints: vclock.Vector{rem: vclock.At(6)}})
	if !e.LogSnapshot(cA).Hints().Has(rem) {
		t.Fatal("fresh forwarding suppressed by the expiry bound")
	}
}

func TestEngineResolveIntroductionDeadHolder(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	// cA was removed long ago; a forwarded reference addressed to one of
	// its objects arrives — the introduction can never form an edge.
	e.Register(cA)
	e.HandleDestroy(cA, r1, DestroyMsg{Auth: vclock.Vector{r1: vclock.Eps(1)}})
	if !e.Removed(cA) {
		t.Fatal("cA not removed")
	}
	e.ResolveIntroduction(cA, rem, cB, 4)
	if len(fs.asserts) != 1 {
		t.Fatalf("asserts = %+v, want 1 negative", fs.asserts)
	}
	if a := fs.asserts[0]; a.from != cA || a.to != rem || a.m.Stamp != 0 || a.m.IntroSeq != 4 {
		t.Errorf("negative assert = %+v", a)
	}
	// Journaled: refresh re-sends until acked.
	e.Refresh()
	if len(fs.asserts) != 2 {
		t.Fatalf("negative assert not re-sent: %+v", fs.asserts)
	}
	if got := e.Ack(rem.Site, StreamAssert, fs.asserts[0].seq); got != 1 {
		t.Fatalf("AckAsserts retired %d rows, want 1", got)
	}
	e.Refresh()
	if len(fs.asserts) != 2 {
		t.Fatalf("negative assert re-sent after ack: %+v", fs.asserts)
	}
}

func TestEngineResolveIntroductionLiveEdgeReasserts(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	e.Register(cA)
	e.EdgeUp(cA, rem, true, ids.NoCluster, 0) // sends the edge's own first assert
	clock := e.Clock(cA)
	// The holder object died but the cluster still holds the edge: the
	// introduction is consumed on its behalf with a genuine re-assert.
	e.ResolveIntroduction(cA, rem, cB, 4)
	if len(fs.asserts) != 2 {
		t.Fatalf("asserts = %+v, want 2", fs.asserts)
	}
	a := fs.asserts[1]
	if a.m.Stamp != clock+1 || a.m.Intro != cB || a.m.IntroSeq != 4 {
		t.Errorf("re-assert = %+v, want stamp %d", a, clock+1)
	}
	ob := e.LogSnapshot(cA).PeekOB(rem)
	if ob == nil || ob.Processed.Get(cB) != vclock.At(4) {
		t.Errorf("introduction not recorded as processed: %+v", ob)
	}
}

func TestEngineResolveIntroductionLocalOwner(t *testing.T) {
	e, _, _ := newEngine(t, Options{})
	e.Register(r1)
	e.Register(cA)
	e.Register(cB)
	e.EdgeUp(r1, cA, true, ids.NoCluster, 0) // keep cA alive
	e.Drain()
	// Arm hint (cB, rem, 3) at local cA, then expire it locally: the
	// holder cB's object died before the transfer arrived.
	e.HandleDestroy(cA, rem, DestroyMsg{
		Auth:  vclock.Vector{rem: vclock.Eps(2)},
		Hints: vclock.Vector{cB: vclock.At(3)},
	})
	if !e.LogSnapshot(cA).Hints().Has(cB) {
		t.Fatal("hint not armed")
	}
	e.ResolveIntroduction(cB, cA, rem, 3)
	if e.LogSnapshot(cA).Hints().Has(cB) {
		t.Fatal("local hint not expired")
	}
}

func TestEngineNegativeRowSurvivesEdgeLifecycle(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	e.Register(r1)
	e.Register(cA)
	e.EdgeUp(r1, cA, true, ids.NoCluster, 0) // keep cA alive
	e.Drain()
	// A dead introduction is expired while cA holds no edge to rem: a
	// negative assert row is journaled.
	e.ResolveIntroduction(cA, rem, cB, 4)
	neg := len(fs.asserts)
	if neg == 0 || fs.asserts[neg-1].m.Stamp != 0 {
		t.Fatalf("asserts = %+v, want trailing negative", fs.asserts)
	}
	// cA later forms a genuine edge to rem (different introduction) and
	// destroys it: the negative row is still unacknowledged, so it
	// survives the edge's lifecycle and is re-sent.
	e.EdgeUp(cA, rem, true, cB, 9)
	e.EdgeDown(cA, rem)
	e.Drain()
	e.Refresh()
	found := false
	for _, a := range fs.asserts[neg:] {
		if a.m.Stamp == 0 && a.m.Intro == cB && a.m.IntroSeq == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("negative assert not re-sent after edge lifecycle: %+v", fs.asserts[neg:])
	}
}

// TestUnbornIsNeverRemovedNorPropagates pins the safety half of
// merge-on-arrival: however many frames condemn a cluster ahead of its
// creation message — far more than the buffer this replaced could hold —
// its unborn process merges them all and is never evaluated, so it is
// neither removed (the site has no heap shell to sweep) nor made to send
// anything. Its creation queues the one verdict, through the inbox.
func TestUnbornIsNeverRemovedNorPropagates(t *testing.T) {
	e, fs, removed := newEngine(t, Options{})
	for i := 0; i < 200; i++ {
		e.HandleDestroyFrame(cA, rem, DestroyMsg{Auth: vclock.Vector{rem: vclock.Eps(uint64(i + 2))}}, uint64(i+1), false)
	}
	for i := 0; i < 3; i++ {
		e.Refresh()
	}
	if e.Removed(cA) || len(*removed) != 0 {
		t.Fatalf("unborn process removed: %v", *removed)
	}
	if e.Registered(cA) {
		t.Fatal("Registered reports an unborn process: its creation is still in flight")
	}
	if n := len(fs.destroys) + len(fs.props) + len(fs.asserts); n != 0 {
		t.Fatalf("unborn process sent %d frames", n)
	}
	if st := e.Stats(); st.Evaluations != 0 || st.StaleDeliveries != 0 {
		t.Fatalf("unborn process evaluated or its frames dropped: %+v", st)
	}
	if len(fs.settles) != 200 {
		t.Fatalf("settled %d of 200 merged frames", len(fs.settles))
	}
	if got := e.Retained().PendingDeliveries; got != 1 {
		t.Fatalf("unborn gauge = %d, want 1", got)
	}
	if got := e.LogSnapshot(cA).Own().Get(rem); got != vclock.Eps(201) {
		t.Fatalf("own[rem] = %v, want the newest early stamp Ē201", got)
	}
	e.HandleCreate(cA, rem, 1)
	if e.Removed(cA) {
		t.Fatal("verdict ran inside Register: the site has not materialised the object yet")
	}
	if !e.Registered(cA) {
		t.Fatal("created cluster not registered")
	}
	e.Drain()
	if !e.Removed(cA) || len(*removed) != 1 {
		t.Fatalf("garbage at birth not removed: %v", *removed)
	}
	if got := e.Stats().Evaluations; got != 1 {
		t.Errorf("birth ran %d evaluations, want exactly 1", got)
	}
	if got := e.Retained().PendingDeliveries; got != 0 {
		t.Errorf("unborn gauge = %d after birth, want 0", got)
	}
}

func TestEngineBufferedFrameSettles(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	// A tracked destroy racing ahead of its target's creation is buffered
	// durably (part of the engine image) — a final, replayable
	// disposition, so it settles immediately.
	e.HandleDestroyFrame(cA, rem, DestroyMsg{Auth: vclock.Vector{rem: vclock.Eps(1)}}, 3, false)
	if len(fs.settles) != 1 || fs.settles[0] != (settledFrame{rem.Site, StreamDestroy, 3}) {
		t.Fatalf("settles = %+v, want buffered destroy seq 3", fs.settles)
	}
}

// TestEngineJournalRetainsEveryRow: the assert journal has no cap —
// every journaled row stays until the owner's site acknowledges it.
func TestEngineJournalRetainsEveryRow(t *testing.T) {
	e, _, _ := newEngine(t, Options{})
	for i := uint64(1); i <= 5000; i++ {
		e.sendJournaledAssert(assertRow{holder: cA, target: rem, intro: cB, seq: i}, AssertMsg{Intro: cB, IntroSeq: i})
	}
	if got := e.Retained().AssertRows; got != 5000 {
		t.Fatalf("journal holds %d rows, want all 5000", got)
	}
}

func TestEnginePendingOverflowAdmitsLocalExpiry(t *testing.T) {
	e, _, _ := newEngine(t, Options{})
	e.Register(cB)
	// Fill cA's pre-registration buffer with (re-derivable) destroys.
	// Each bundles a live root stamp so the replay leaves cA alive.
	for i := 0; i < 64; i++ {
		e.HandleDestroy(cA, rem, DestroyMsg{Auth: vclock.Vector{
			r1:  vclock.At(1),
			rem: vclock.Eps(uint64(i + 1)),
		}})
	}
	// A dead introduction for the not-yet-created local owner cA: the
	// self-delivered expiry must displace a buffered destroy instead of
	// being the thing that is dropped.
	e.ResolveIntroduction(cB, cA, rem, 5)
	e.Register(cA)
	e.HandleCreate(cA, rem, 1)
	e.Drain()
	if !e.Registered(cA) {
		t.Fatal("cA not live after create")
	}
	// The replayed expiry recorded the bound: the introducer's stale
	// arming of hint (cB, rem, 5) is suppressed.
	e.HandleDestroy(cA, rem, DestroyMsg{Hints: vclock.Vector{cB: vclock.At(5)}})
	if e.LogSnapshot(cA).Hints().Has(cB) {
		t.Fatal("expiry lost to pending-buffer overflow: hint armed")
	}
	if got := e.Stats().HintsExpired; got != 1 {
		t.Errorf("HintsExpired = %d, want 1", got)
	}
}

func TestEngineRemoveRetainsFinalBundle(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	e.Register(cA)
	e.EdgeUp(cA, rem, true, ids.NoCluster, 0)
	e.HandleDestroy(cA, r1, DestroyMsg{Auth: vclock.Vector{r1: vclock.Eps(1)}})
	if !e.Removed(cA) {
		t.Fatal("cA not removed")
	}
	if len(fs.destroys) != 1 || fs.destroys[0].to != rem {
		t.Fatalf("destroys = %+v", fs.destroys)
	}
	// The finalisation destroy was lost: the process is gone, but the
	// retained bundle re-ships on refresh.
	e.Refresh()
	if len(fs.destroys) != 2 {
		t.Fatalf("final bundle not re-sent: %+v", fs.destroys)
	}
	if d := fs.destroys[1]; d.from != cA || d.to != rem || !d.m.Auth.Get(cA).Eps {
		t.Errorf("re-sent bundle = %+v", d)
	}
}

func TestEngineRemoveObserver(t *testing.T) {
	var observed []ids.ClusterID
	fs := &fakeSender{}
	e := New(1, fs, nil, Options{
		RemoveObserver: func(id ids.ClusterID, log *vclock.Log, clock uint64) {
			if log == nil {
				t.Error("observer got nil log")
			}
			observed = append(observed, id)
		},
	})
	e.Register(cA)
	e.HandleDestroy(cA, r1, DestroyMsg{Auth: vclock.Vector{r1: vclock.Eps(1)}})
	if len(observed) != 1 || observed[0] != cA {
		t.Fatalf("observed = %v", observed)
	}
}

// --- Acknowledged retirement (DESIGN.md §3.2) ----------------------------

func TestEngineAckAssertsRetiresCumulatively(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	e.Register(r1)
	e.Register(cA)
	e.EdgeUp(r1, cA, true, ids.NoCluster, 0) // keep cA alive
	e.Drain()
	intro := ids.ClusterID{Site: 3, Seq: 9}
	rem2 := ids.ClusterID{Site: 2, Seq: 4}
	e.EdgeUp(cA, rem, true, intro, 7)  // assert stream seq 1
	e.EdgeUp(cA, rem2, true, intro, 8) // assert stream seq 2
	if len(fs.asserts) != 2 {
		t.Fatalf("asserts = %+v, want 2", fs.asserts)
	}
	// The peer site's cumulative watermark 2 retires both rows at once.
	if n := e.Ack(2, StreamAssert, 2); n != 2 {
		t.Fatalf("AckAsserts retired %d rows, want 2", n)
	}
	e.Refresh()
	if got := e.Stats().AssertResends; got != 0 {
		t.Errorf("AssertResends after full ack = %d, want 0", got)
	}
	if got := e.Stats().RowsRetired; got != 2 {
		t.Errorf("RowsRetired = %d, want 2", got)
	}
}

func TestEngineAckDestroysStopsResend(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	e.Register(r1)
	e.Register(cA)
	e.EdgeUp(r1, cA, true, ids.NoCluster, 0) // keep cA alive
	e.EdgeUp(cA, rem, true, ids.NoCluster, 0)
	e.EdgeDown(cA, rem)
	e.Drain()
	if len(fs.destroys) != 1 || fs.destroys[0].seq == 0 {
		t.Fatalf("destroys = %+v, want one tracked bundle", fs.destroys)
	}
	seq := fs.destroys[0].seq
	// Unacknowledged: the first refresh re-ships the Ē bundle.
	e.Refresh()
	if got := e.Stats().DestroyResends; got != 1 {
		t.Fatalf("DestroyResends = %d, want 1", got)
	}
	if re := fs.destroys[len(fs.destroys)-1]; re.seq != seq {
		t.Fatalf("re-send changed the stream seq: %d -> %d (would open a receiver gap)", seq, re.seq)
	}
	// The target site acknowledges: no further re-sends, ever.
	if n := e.AckDestroys(rem.Site, seq); n != 1 {
		t.Fatalf("AckDestroys retired %d, want 1", n)
	}
	n := len(fs.destroys)
	for i := 0; i < 4; i++ {
		e.Refresh()
	}
	if len(fs.destroys) != n {
		t.Fatalf("acked bundle re-sent: %+v", fs.destroys[n:])
	}
}

func TestEngineEdgeReformInvalidatesDestroyAck(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	e.Register(r1)
	e.Register(cA)
	e.EdgeUp(r1, cA, true, ids.NoCluster, 0)
	e.EdgeUp(cA, rem, true, ids.NoCluster, 0)
	e.EdgeDown(cA, rem)
	e.Drain()
	firstSeq := fs.destroys[0].seq
	// The edge re-forms, then is destroyed again: the second Ē ships
	// under a fresh stream sequence, and the first row stays beside it.
	e.EdgeUp(cA, rem, true, cB, 5)
	e.EdgeDown(cA, rem)
	e.Drain()
	second := fs.destroys[len(fs.destroys)-1]
	if second.seq == firstSeq {
		t.Fatalf("re-destroyed edge reused stream seq %d", firstSeq)
	}
	if got := e.Retained().DestroyRows; got != 2 {
		t.Fatalf("DestroyRows = %d, want both destructions retained", got)
	}
	// A stale ack of the first frame retires exactly the first row.
	if n := e.AckDestroys(rem.Site, firstSeq); n != 1 {
		t.Fatalf("stale watermark retired %d rows, want the first one", n)
	}
	n := len(fs.destroys)
	e.Refresh()
	if got := e.Stats().DestroyResends; got != 1 {
		t.Errorf("fresh Ē bundle not re-sent after stale ack: resends = %d", got)
	}
	if re := fs.destroys[n:]; len(re) != 1 || re[0].seq != second.seq || !sameBundle(re[0].m, second.m) {
		t.Errorf("refresh re-sent %+v, want the fresh bundle %+v", re, second)
	}
}

// TestEngineAckRetiresFinalisationBundle: a removed process's
// finalisation bundle is a destroy-ledger row in the destroy stream, and
// the target site's ack on that stream retires it.
func TestEngineAckRetiresFinalisationBundle(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	e.Register(cA)
	e.EdgeUp(cA, rem, true, ids.NoCluster, 0)
	e.HandleDestroy(cA, r1, DestroyMsg{Auth: vclock.Vector{r1: vclock.Eps(1)}})
	if !e.Removed(cA) {
		t.Fatal("cA not removed")
	}
	if len(fs.destroys) != 1 || fs.destroys[0].from != cA || fs.destroys[0].to != rem {
		t.Fatalf("destroys = %+v, want cA's one finalisation bundle", fs.destroys)
	}
	if got := e.Retained().DestroyRows; got != 1 {
		t.Fatalf("DestroyRows = %d, want the finalisation bundle", got)
	}
	if n := e.Ack(rem.Site, StreamDestroy, fs.destroys[0].seq); n != 1 {
		t.Fatalf("Ack retired %d, want 1", n)
	}
	e.Refresh()
	if got := e.Stats().DestroyResends; got != 0 {
		t.Errorf("acked finalisation bundle re-sent: DestroyResends = %d", got)
	}
}

func TestEngineResendDamperBacksOff(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	e.Register(r1)
	e.Register(cA)
	e.EdgeUp(r1, cA, true, ids.NoCluster, 0)
	e.Drain()
	e.EdgeUp(cA, rem, true, cB, 7) // one journaled assert, never acked
	base := len(fs.asserts)
	sentAt := []uint64{}
	for round := uint64(1); round <= 16; round++ {
		n := len(fs.asserts)
		e.Refresh()
		if len(fs.asserts) > n {
			sentAt = append(sentAt, round)
		}
	}
	// Exponential schedule: rounds 1, 2, 4, 8, 16.
	want := []uint64{1, 2, 4, 8, 16}
	if len(sentAt) != len(want) {
		t.Fatalf("re-sends at rounds %v, want %v", sentAt, want)
	}
	for i := range want {
		if sentAt[i] != want[i] {
			t.Fatalf("re-sends at rounds %v, want %v", sentAt, want)
		}
	}
	if got := e.Stats().ResendsSuppressed; got != 16-len(want) {
		t.Errorf("ResendsSuppressed = %d, want %d", got, 16-len(want))
	}
	_ = base
}

func TestEngineResetPeerBackoffReArms(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	e.Register(r1)
	e.Register(cA)
	e.EdgeUp(r1, cA, true, ids.NoCluster, 0)
	e.Drain()
	e.EdgeUp(cA, rem, true, cB, 7)
	e.Refresh() // round 1: re-send, next due round 2
	e.Refresh() // round 2: re-send, next due round 4
	n := len(fs.asserts)
	// Peer restarted: the damper re-arms and round 3 re-sends at once.
	e.ResetPeerBackoff(rem.Site)
	e.Refresh()
	if len(fs.asserts) != n+1 {
		t.Errorf("reset damper did not re-send on the next round")
	}
}

func TestEngineSettledBufferedFrameNotEvicted(t *testing.T) {
	e, fs, _ := newEngine(t, Options{})
	// A tracked destroy for a pre-registration target settles on
	// buffering: the sender retires its bundle on the resulting ack, so
	// nothing would ever re-derive the frame if it were evicted. Its
	// bundled hint (seq 9, above the expiry bound below) marks whether
	// it survived the buffer.
	e.HandleDestroyFrame(cA, rem, DestroyMsg{
		Auth:  vclock.Vector{r1: vclock.At(1), rem: vclock.Eps(1)},
		Hints: vclock.Vector{cB: vclock.At(9)},
	}, 3, false)
	if len(fs.settles) != 1 {
		t.Fatalf("settles = %+v, want the buffered tracked destroy", fs.settles)
	}
	// Untracked (re-derivable) destroys fill the rest of the buffer.
	for i := 0; i < 63; i++ {
		e.HandleDestroy(cA, rem, DestroyMsg{Auth: vclock.Vector{
			r1:  vclock.At(1),
			rem: vclock.Eps(uint64(i + 2)),
		}})
	}
	// A local sole-carrier expiry needs room: it must displace an
	// UN-settled destroy, never the settled frame.
	e.Register(cB)
	e.ResolveIntroduction(cB, cA, rem, 5)
	e.Register(cA)
	e.HandleCreate(cA, rem, 1)
	e.Drain()
	if !e.Registered(cA) {
		t.Fatal("cA not live after create")
	}
	if got := e.Stats().HintsExpired; got != 1 {
		t.Errorf("expiry lost: HintsExpired = %d, want 1", got)
	}
	if !e.LogSnapshot(cA).Hints().Has(cB) {
		t.Fatal("settled buffered frame evicted: its armed hint is gone (the sender retired the bundle — nothing re-derives it)")
	}
}
