package site_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
	"testing"

	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/oracle"
	"causalgc/internal/site"
	"causalgc/internal/wire"
	"causalgc/persist"
)

// openPersist opens a journal for one site under the test's temp dir.
func openPersist(t *testing.T, dir string, every int) *site.Persist {
	t.Helper()
	p, err := site.OpenPersist(dir, site.PersistOptions{SnapshotEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// recoverSite runs site.Recover, failing the test on error.
func recoverSite(t *testing.T, id ids.SiteID, net netsim.Network, p *site.Persist) *site.Site {
	t.Helper()
	s, err := site.Recover(id, net, site.DefaultOptions(), p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRecoverFreshDirectory: a journaled site over an empty directory
// behaves like site.New.
func TestRecoverFreshDirectory(t *testing.T) {
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	p := openPersist(t, t.TempDir(), 4)
	s1 := recoverSite(t, 1, net, p)
	ref, err := s1.NewLocal(s1.Root().Obj)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.HasObject(ref.Obj) {
		t.Fatal("object missing")
	}
	if p.Store().Stats().Appends == 0 {
		t.Error("journal recorded nothing")
	}
}

// buildState drives a site through a representative mix of journaled
// operations: local and remote creates, a transfer, a drop, a collect.
func buildState(t *testing.T, net *netsim.Sim, s1 *site.Site) (kept heap.Ref) {
	t.Helper()
	a, err := s1.NewLocal(s1.Root().Obj)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s1.NewRemote(s1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	run(t, net)
	if err := s1.SendRef(s1.Root().Obj, b, a); err != nil {
		t.Fatal(err)
	}
	run(t, net)
	if err := s1.DropRefs(s1.Root().Obj, a); err != nil {
		t.Fatal(err)
	}
	run(t, net)
	if _, err := s1.Collect(); err != nil {
		t.Fatal(err)
	}
	run(t, net)
	return b
}

// crash simulates a kill: close the journal's files with no final
// snapshot, drop the in-flight control messages addressed to the site,
// and forget the runtime.
func crash(t *testing.T, net *netsim.Sim, id ids.SiteID, p *site.Persist) {
	t.Helper()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	net.Unregister(id)
	net.DropPendingTo(id)
}

// TestRecoverReplaysState: kill site 1 at various snapshot cadences and
// check the reconstructed state matches what the live site had.
func TestRecoverReplaysState(t *testing.T) {
	for _, every := range []int{1, 3, 1000} {
		net := netsim.NewSim(netsim.Faults{Seed: 1})
		dir := t.TempDir()
		p := openPersist(t, dir, every)
		s1 := recoverSite(t, 1, net, p)
		s2 := site.New(2, net, site.DefaultOptions())
		b := buildState(t, net, s1)

		wantObjects := s1.NumObjects()
		wantClock := s1.Clock(b.Cluster)
		crash(t, net, 1, p)

		p2 := openPersist(t, dir, every)
		r1 := recoverSite(t, 1, net, p2)
		run(t, net)
		if got := r1.NumObjects(); got != wantObjects {
			t.Errorf("every=%d: recovered %d objects, want %d", every, got, wantObjects)
		}
		// The holder's slots must have survived: root still holds b.
		if !r1.HasObject(r1.Root().Obj) {
			t.Errorf("every=%d: root object lost", every)
		}
		if got := r1.Clock(b.Cluster); got != wantClock {
			t.Errorf("every=%d: recovered clock %d, want %d", every, got, wantClock)
		}
		if rep := oracle.Check(r1, s2); !rep.Safe() {
			t.Errorf("every=%d: unsafe after recovery: %v", every, rep)
		}
		p2.Close()
	}
}

// TestRecoveryResumesDetection: a distributed cycle is built, the
// holding site is killed before GGD finishes, and after recovery the
// cycle is still reclaimed — the end-to-end durability property.
func TestRecoveryResumesDetection(t *testing.T) {
	net := netsim.NewSim(netsim.Faults{Seed: 7})
	dir := t.TempDir()
	p := openPersist(t, dir, 5)
	s1 := recoverSite(t, 1, net, p)
	s2 := site.New(2, net, site.DefaultOptions())
	s3 := site.New(3, net, site.DefaultOptions())

	// Cycle a(s1) → b(s2) → c(s3) → a, held by s1's root.
	a, err := s1.NewLocal(s1.Root().Obj)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s1.NewRemote(a.Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	run(t, net)
	c, err := s2.NewRemote(b.Obj, 3)
	if err != nil {
		t.Fatal(err)
	}
	run(t, net)
	if err := s1.SendRef(s1.Root().Obj, c, a); err != nil { // c → a closes the cycle
		t.Fatal(err)
	}
	run(t, net)

	// Drop the root edge: the cycle {a,b,c} is garbage. Kill site 1
	// right after the drop, before detection converges.
	if err := s1.DropRefs(s1.Root().Obj, a); err != nil {
		t.Fatal(err)
	}
	crash(t, net, 1, p)

	p2 := openPersist(t, dir, 5)
	r1 := recoverSite(t, 1, net, p2)
	defer p2.Close()
	run(t, net)
	for i := 0; i < 8; i++ {
		if _, err := r1.Collect(); err != nil {
			t.Fatal(err)
		}
		s2.Collect()
		s3.Collect()
		if err := r1.Refresh(); err != nil {
			t.Fatal(err)
		}
		s2.Refresh()
		s3.Refresh()
		run(t, net)
	}
	rep := oracle.Check(r1, s2, s3)
	if !rep.Safe() {
		t.Fatalf("unsafe after recovery: %v", rep)
	}
	if len(rep.Garbage) != 0 {
		t.Fatalf("cycle not reclaimed after recovery: %v", rep)
	}
	if r1.NumObjects() != 1 || s2.NumObjects() != 1 || s3.NumObjects() != 1 {
		t.Fatalf("objects remain: %d %d %d", r1.NumObjects(), s2.NumObjects(), s3.NumObjects())
	}
}

// downNet is a simulator whose Send discards every payload addressed to
// a down site, as a peer process that is not running does over TCP: the
// Sim alone never drops application payloads.
type downNet struct {
	*netsim.Sim
	down map[ids.SiteID]bool
}

func (n *downNet) Send(from, to ids.SiteID, p netsim.Payload) {
	if n.down[to] {
		n.Stats().RecordDropped(p)
		return
	}
	n.Sim.Send(from, to, p)
}

// TestRetainedOutboxSurvivesDownPeer: a durable site retains every
// Create it sends toward a down peer — the outbox has no cap — so once
// the peer is back, refresh rounds deliver all of them. A Create lost
// from the outbox would leave the creator holding a reference to an
// object that never exists.
func TestRetainedOutboxSurvivesDownPeer(t *testing.T) {
	const creates = 1100
	net := &downNet{Sim: netsim.NewSim(netsim.Faults{Seed: 1}), down: make(map[ids.SiteID]bool)}
	p := openPersist(t, t.TempDir(), 4096)
	defer p.Close()
	s1 := recoverSite(t, 1, net, p)
	s2 := site.New(2, net, site.DefaultOptions())
	// Each Create has its own holder: one holder of every remote object
	// would have each refresh round ship its 1 100-row log to all 1 100
	// of them, quadratic in memory.
	holders := make([]heap.Ref, creates)
	for i := range holders {
		h, err := s1.NewLocal(s1.Root().Obj)
		if err != nil {
			t.Fatal(err)
		}
		holders[i] = h
	}

	net.down[2] = true
	for _, h := range holders {
		if _, err := s1.NewRemote(h.Obj, 2); err != nil {
			t.Fatal(err)
		}
	}
	run(t, net.Sim)
	net.down[2] = false
	for round := 0; round < 2; round++ {
		for _, s := range []*site.Site{s1, s2} {
			if err := s.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
		run(t, net.Sim)
	}
	if got := s2.NumObjects(); got != creates+1 {
		t.Errorf("site 2 holds %d objects, want %d", got, creates+1)
	}
	if rep := oracle.Check(s1, s2); !rep.Clean() {
		t.Errorf("not clean once the peer is back: %v", rep)
	}
	if got := s1.FrameStats().OutboxRetained; got != 0 {
		t.Errorf("OutboxRetained = %d after the peer acknowledged, want 0", got)
	}
}

// TestRetainedTransferIntoOwnCluster: a reference copied into the
// cluster it denotes (SendRef(root, x, x)) carries no introduction, yet
// it is a mutator frame like any other: a durable sender retains it
// until acknowledged, and the receiver applies it once by its stream
// sequence. Sent toward a down peer beside an introduced copy, both
// reach the peer once it is back.
func TestRetainedTransferIntoOwnCluster(t *testing.T) {
	net := &downNet{Sim: netsim.NewSim(netsim.Faults{Seed: 1}), down: make(map[ids.SiteID]bool)}
	p := openPersist(t, t.TempDir(), 4096)
	defer p.Close()
	s1 := recoverSite(t, 1, net, p)
	s2 := site.New(2, net, site.DefaultOptions())
	root := s1.Root().Obj
	x, err := s1.NewRemote(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	y, err := s1.NewRemote(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	run(t, net.Sim)

	net.down[2] = true
	if err := s1.SendRef(root, x, x); err != nil {
		t.Fatal(err)
	}
	if err := s1.SendRef(root, x, y); err != nil {
		t.Fatal(err)
	}
	run(t, net.Sim)
	net.down[2] = false
	for round := 0; round < 3; round++ {
		for _, s := range []*site.Site{s1, s2} {
			if err := s.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
		run(t, net.Sim)
	}
	_, objs := s2.Snapshot()
	var slots []heap.Ref
	for _, o := range objs {
		if o.ID == x.Obj {
			slots = o.Slots
		}
	}
	if len(slots) != 2 {
		t.Fatalf("x holds %v, want its own reference and y's", slots)
	}
	if got := s1.FrameStats().OutboxRetained; got != 0 {
		t.Errorf("OutboxRetained = %d after the peer acknowledged, want 0", got)
	}
}

// TestRecoverDedupsResentTransfers: a transfer the receiver already
// processed is re-sent by the sender's recovery; the receiver must not
// grow a second slot.
func TestRecoverDedupsResentTransfers(t *testing.T) {
	net := netsim.NewSim(netsim.Faults{Seed: 3})
	dir1, dir2 := t.TempDir(), t.TempDir()
	p1 := openPersist(t, dir1, 1000)
	p2 := openPersist(t, dir2, 1000)
	s1 := recoverSite(t, 1, net, p1)
	s2 := recoverSite(t, 2, net, p2)

	a, err := s1.NewLocal(s1.Root().Obj)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s1.NewRemote(s1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	run(t, net)
	if err := s1.SendRef(s1.Root().Obj, b, a); err != nil {
		t.Fatal(err)
	}
	run(t, net)
	_, snap := s2.Snapshot()
	slotsBefore := countSlots(snap, b.Obj)

	// Sender crashes and recovers: its outbox re-sends the transfer.
	crash(t, net, 1, p1)
	p1b := openPersist(t, dir1, 1000)
	r1 := recoverSite(t, 1, net, p1b)
	defer p1b.Close()
	defer p2.Close()
	run(t, net)

	_, snap = s2.Snapshot()
	if got := countSlots(snap, b.Obj); got != slotsBefore {
		t.Fatalf("duplicate transfer applied: %d slots, want %d", got, slotsBefore)
	}
	if rep := oracle.Check(r1, s2); !rep.Safe() {
		t.Fatalf("unsafe: %v", rep)
	}
}

func countSlots(snap []site.ObjectSnapshot, obj ids.ObjectID) int {
	for _, o := range snap {
		if o.ID == obj {
			n := 0
			for _, s := range o.Slots {
				if s.Valid() {
					n++
				}
			}
			return n
		}
	}
	return -1
}

// TestRecoveredWALCountsTowardSnapshot: a crash-looping site must not
// grow its WAL without bound — records replayed at recovery count
// toward the snapshot threshold, so the first post-recovery checkpoint
// truncates.
func TestRecoveredWALCountsTowardSnapshot(t *testing.T) {
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	dir := t.TempDir()
	p := openPersist(t, dir, 1_000_000) // no snapshot during the first life
	s1 := recoverSite(t, 1, net, p)
	for i := 0; i < 10; i++ {
		if _, err := s1.NewLocal(s1.Root().Obj); err != nil {
			t.Fatal(err)
		}
	}
	if p.Store().Stats().Snapshots != 0 {
		t.Fatal("premature snapshot")
	}
	crash(t, net, 1, p)

	// Second life with a small threshold: the 10 replayed records
	// exceed it, so recovery's own journaled refresh triggers the
	// snapshot and truncates the log.
	p2 := openPersist(t, dir, 4)
	r1 := recoverSite(t, 1, net, p2)
	if got := p2.Store().Stats().Snapshots; got == 0 {
		t.Fatal("recovered WAL records did not count toward the snapshot threshold")
	}
	crash(t, net, 1, p2)

	// Third life must replay from the snapshot, not the full history.
	p3 := openPersist(t, dir, 4)
	r1 = recoverSite(t, 1, net, p3)
	defer p3.Close()
	if got := p3.Store().Stats().RecoveredRecords; got > 4 {
		t.Fatalf("replayed %d records after snapshot, want <= 4", got)
	}
	if got := r1.NumObjects(); got != 11 {
		t.Fatalf("recovered %d objects, want 11", got)
	}
}

// TestCheckpointUnwedgesJournal: a checkpoint failure is sticky only
// until a later checkpoint succeeds.
func TestCheckpointUnwedgesJournal(t *testing.T) {
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	p := openPersist(t, t.TempDir(), 1_000_000)
	s1 := recoverSite(t, 1, net, p)
	if _, err := s1.NewLocal(s1.Root().Obj); err != nil {
		t.Fatal(err)
	}
	// Sabotage one checkpoint: a build failure wedges the journal...
	buildErr := fmt.Errorf("synthetic image failure")
	if err := p.ForceCheckpoint(func() (*wire.SiteImage, error) { return nil, buildErr }); err == nil {
		t.Fatal("sabotaged checkpoint succeeded")
	}
	if _, err := s1.NewLocal(s1.Root().Obj); err == nil {
		t.Fatal("append succeeded under sticky checkpoint failure")
	}
	// ...until a checkpoint succeeds, after which ops flow again.
	if err := s1.Checkpoint(); err != nil {
		t.Fatalf("recovering checkpoint failed: %v", err)
	}
	if _, err := s1.NewLocal(s1.Root().Obj); err != nil {
		t.Fatalf("append still failing after successful checkpoint: %v", err)
	}
	p.Close()
}

// TestJournalFailureFailsOps: once the journal cannot append, mutator
// operations fail instead of silently diverging from the durable
// history.
func TestJournalFailureFailsOps(t *testing.T) {
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	p := openPersist(t, t.TempDir(), 1000)
	s1 := recoverSite(t, 1, net, p)
	if _, err := s1.NewLocal(s1.Root().Obj); err != nil {
		t.Fatal(err)
	}
	p.Close() // underlying store closed: appends must fail
	if _, err := s1.NewLocal(s1.Root().Obj); err == nil {
		t.Fatal("op succeeded with a dead journal")
	}
	if _, err := s1.Collect(); err == nil {
		t.Fatal("collect succeeded with a dead journal")
	}
}

// TestRefusedDeliveryIsCounted: a delivery whose write-ahead append
// fails is dropped unapplied and unacknowledged — and counted, so a
// failing disk shows up instead of turning the site into a silent black
// hole.
func TestRefusedDeliveryIsCounted(t *testing.T) {
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	p1 := openPersist(t, t.TempDir(), 1000)
	p2 := openPersist(t, t.TempDir(), 1000)
	s1 := recoverSite(t, 1, net, p1)
	s2 := recoverSite(t, 2, net, p2)
	defer p1.Close()

	// A healthy delivery is applied and acknowledged.
	if _, err := s1.NewRemote(s1.Root().Obj, 2); err != nil {
		t.Fatal(err)
	}
	run(t, net)
	if got := s2.FrameStats(); got.AcksSent != 1 || got.DeliveriesRefused != 0 {
		t.Fatalf("healthy delivery: acks sent = %d, refused = %d; want 1, 0", got.AcksSent, got.DeliveriesRefused)
	}
	objects, engine, acks := s2.NumObjects(), s2.EngineStats(), net.Stats().Sent(wire.KindFrameAck)

	p2.Close() // the journal dies under the live site
	refused, err := s1.NewRemote(s1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	run(t, net)

	if got := s2.FrameStats().DeliveriesRefused; got != 1 {
		t.Errorf("DeliveriesRefused = %d, want 1", got)
	}
	if s2.HasObject(refused.Obj) || s2.NumObjects() != objects {
		t.Errorf("refused create took effect: %d objects, want %d", s2.NumObjects(), objects)
	}
	if got := s2.EngineStats(); got != engine {
		t.Errorf("engine state moved on a refused delivery:\n got %+v\nwant %+v", got, engine)
	}
	if got := net.Stats().Sent(wire.KindFrameAck); got != acks {
		t.Errorf("a refused delivery was acknowledged: %d acks on the wire, want %d", got, acks)
	}
	if got := s2.FrameStats().AcksSent; got != 1 {
		t.Errorf("AcksSent = %d, want 1", got)
	}
}

// TestRecoveryShipsSnapshotOutboxOnce: recovery re-sends an
// unacknowledged mutator frame through its one journaled Refresh and
// nowhere else. A frame held only in the snapshot's outbox ships exactly
// once; one whose commit is still in the WAL tail ships twice — the
// replay re-emits it, the refresh re-sends it. A hand-rolled outbox walk
// between the two used to ship every row one more time.
func TestRecoveryShipsSnapshotOutboxOnce(t *testing.T) {
	for _, tc := range []struct {
		name       string
		checkpoint bool
		want       int
	}{{"snapshot", true, 1}, {"WAL tail", false, 2}} {
		net := netsim.NewSim(netsim.Faults{Seed: 1})
		creates := map[uint64]int{} // by stream sequence; site 2 never acknowledges
		net.Register(2, func(_ ids.SiteID, p netsim.Payload) {
			frames := []netsim.Payload{p}
			if env, ok := p.(wire.Envelope); ok {
				frames = env.Frames
			}
			for _, f := range frames {
				if c, ok := f.(wire.Create); ok {
					creates[c.Seq]++
				}
			}
		})
		dir := t.TempDir()
		p := openPersist(t, dir, 1000)
		s1 := recoverSite(t, 1, net, p)
		if _, err := s1.NewRemote(s1.Root().Obj, 2); err != nil {
			t.Fatal(err)
		}
		run(t, net)
		if len(creates) != 1 || creates[1] != 1 {
			t.Fatalf("%s: live run shipped %v, want sequence 1 once", tc.name, creates)
		}
		if tc.checkpoint {
			if err := s1.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		crash(t, net, 1, p)
		p2 := openPersist(t, dir, 1000)
		r1 := recoverSite(t, 1, net, p2)
		run(t, net)
		if got := creates[1] - 1; len(creates) != 1 || got != tc.want {
			t.Errorf("%s: recovery shipped the unacknowledged creation %d times (%v), want %d", tc.name, got, creates, tc.want)
		}
		if got := r1.FrameStats().OutboxRetained; got != 1 {
			t.Errorf("%s: %d outbox rows after recovery, want the one unacknowledged frame", tc.name, got)
		}
		p2.Close()
	}
}

// TestRecoverRefusesGobJournal: a journal written before the binary
// record codec — the same records, gob-encoded — is refused at Load
// with an error naming the codec version, never misparsed into a
// different history.
func TestRecoverRefusesGobJournal(t *testing.T) {
	dir := t.TempDir()
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	p := openPersist(t, dir, 1_000_000)
	s1 := recoverSite(t, 1, net, p)
	a, err := s1.NewLocal(s1.Root().Obj)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.DropRefs(s1.Root().Obj, a); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Collect(); err != nil {
		t.Fatal(err)
	}
	crash(t, net, 1, p)

	// Transcode the journal record by record into a second directory.
	src, err := persist.Open(dir, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	gobDir := t.TempDir()
	dst, err := persist.Open(gobDir, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(src.WAL()) < 3 {
		t.Fatalf("journal holds %d records, want at least the three ops", len(src.WAL()))
	}
	for _, data := range src.WAL() {
		rec, err := wire.DecodeRecord(data)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
			t.Fatal(err)
		}
		if err := dst.Append(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}

	gp := openPersist(t, gobDir, 1_000_000)
	defer gp.Close()
	if _, _, err := gp.Load(); err == nil || !strings.Contains(err.Error(), "wal record 0") || !strings.Contains(err.Error(), "codec version") {
		t.Fatalf("Load of a gob journal: err = %v, want a codec-version refusal of record 0", err)
	}
	if _, err := site.Recover(1, netsim.NewSim(netsim.Faults{Seed: 1}), site.DefaultOptions(), gp); err == nil {
		t.Fatal("a site recovered from a gob journal")
	}
}

// TestRecoverRefusesGobSnapshot: a snapshot written before images
// joined the binary codec — the same image, gob-encoded — is refused at
// Load with an error naming the codec version, never misparsed into a
// different state.
func TestRecoverRefusesGobSnapshot(t *testing.T) {
	dir := t.TempDir()
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	p := openPersist(t, dir, 1)
	s1 := recoverSite(t, 1, net, p)
	if _, err := s1.NewLocal(s1.Root().Obj); err != nil {
		t.Fatal(err)
	}
	crash(t, net, 1, p)

	src, err := persist.Open(dir, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.Snapshot() == nil {
		t.Fatal("no snapshot taken")
	}
	img, err := wire.DecodeSnapshot(src.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []any{wire.Create{}, wire.RefTransfer{}, wire.Destroy{}, wire.Assert{}, wire.FrameAck{}, wire.Propagate{}, wire.Envelope{}} {
		gob.Register(v)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		t.Fatal(err)
	}
	gobDir := t.TempDir()
	dst, err := persist.Open(gobDir, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.WriteSnapshot(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}

	gp := openPersist(t, gobDir, 1_000_000)
	defer gp.Close()
	if _, _, err := gp.Load(); err == nil || !strings.Contains(err.Error(), "codec version") {
		t.Fatalf("Load of a gob snapshot: err = %v, want a codec-version refusal", err)
	}
	if _, err := site.Recover(1, netsim.NewSim(netsim.Faults{Seed: 1}), site.DefaultOptions(), gp); err == nil {
		t.Fatal("a site recovered from a gob snapshot")
	}
}
