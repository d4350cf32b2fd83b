package site_test

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/site"
	"causalgc/internal/wire"
	"causalgc/persist"
)

// TestBatchEnvelopeCoalescing: a multi-op batch bound for one peer
// ships one mut.envelope instead of one frame per op, and the peer
// materialises every object from it.
func TestBatchEnvelopeCoalescing(t *testing.T) {
	net, s1, s2 := twoSites(t)
	root := s1.Root().Obj
	ops := []wire.BatchOp{
		{Op: wire.OpRecord{Kind: wire.OpNewRemote, Holder: root, Site: 2}},
		{Op: wire.OpRecord{Kind: wire.OpNewRemote, Holder: root, Site: 2}},
		{Op: wire.OpRecord{Kind: wire.OpNewRemote, Holder: root, Site: 2}},
	}
	refs, err := s1.ApplyBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Stats().Sent(wire.KindEnvelope); got != 1 {
		t.Fatalf("envelopes sent = %d, want 1", got)
	}
	if got := net.Stats().Sent(wire.KindCreate); got != 0 {
		t.Fatalf("bare creates sent = %d, want 0 (coalesced)", got)
	}
	run(t, net)
	for i, ref := range refs {
		if !s2.HasObject(ref.Obj) {
			t.Fatalf("op %d: object %v missing on site 2", i, ref.Obj)
		}
	}
}

// TestBatchDeferredChain: later ops chain onto objects earlier ops of
// the same batch create (deferred Ref resolution), including a
// same-batch SendRef whose holdership only exists in the staged view.
func TestBatchDeferredChain(t *testing.T) {
	net, s1, s2 := twoSites(t)
	root := s1.Root().Obj
	ops := []wire.BatchOp{
		// a = NewLocal(root); b = NewLocal(a); c = NewRemote(root, 2);
		// SendRef(from=a, to=c, target=b) — a's hold on b exists only in
		// the staged view until the batch commits.
		{Op: wire.OpRecord{Kind: wire.OpNewLocal, Holder: root}},
		{Op: wire.OpRecord{Kind: wire.OpNewLocal}, HolderFrom: 1},
		{Op: wire.OpRecord{Kind: wire.OpNewRemote, Holder: root, Site: 2}},
		{Op: wire.OpRecord{Kind: wire.OpSendRef}, HolderFrom: 1, ToFrom: 3, TargetFrom: 2},
	}
	refs, err := s1.ApplyBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if refs[0].Obj == refs[1].Obj || !s1.HasObject(refs[0].Obj) || !s1.HasObject(refs[1].Obj) {
		t.Fatalf("deferred chain misresolved: %v", refs)
	}
	if refs[1].Cluster == refs[0].Cluster {
		t.Fatal("NewLocal must mint distinct clusters")
	}
	run(t, net)
	if !s2.HasObject(refs[2].Obj) {
		t.Fatal("remote object missing")
	}
	// The transferred reference landed: c on site 2 now holds b.
	_, objs := s2.Snapshot()
	held := false
	for _, o := range objs {
		if o.ID == refs[2].Obj {
			for _, sl := range o.Slots {
				if sl == refs[1] {
					held = true
				}
			}
		}
	}
	if !held {
		t.Fatal("remote object does not hold the transferred reference")
	}
	// A SendRef whose holdership is NOT staged anywhere must be rejected
	// at staging (root never holds b).
	bad := []wire.BatchOp{
		{Op: wire.OpRecord{Kind: wire.OpNewLocal, Holder: root}},
		{Op: wire.OpRecord{Kind: wire.OpNewLocal}, HolderFrom: 1},
		{Op: wire.OpRecord{Kind: wire.OpSendRef, Holder: root, To: refs[2]}, TargetFrom: 2},
	}
	if _, err := s1.ApplyBatch(bad); !errors.Is(err, site.ErrNotHolder) {
		t.Fatalf("unheld staged SendRef: err = %v, want ErrNotHolder", err)
	}
}

// TestBatchStagingRejectsWithoutJournal: a staging failure rejects the
// whole batch before anything is journaled or applied.
func TestBatchStagingRejectsWithoutJournal(t *testing.T) {
	dir := t.TempDir()
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	j, err := site.OpenPersist(filepath.Join(dir, "site-1"), site.PersistOptions{Store: persist.Options{NoSync: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s1, err := site.Recover(1, net, site.DefaultOptions(), j)
	if err != nil {
		t.Fatal(err)
	}
	base := j.Store().Stats().Appends
	ops := []wire.BatchOp{
		{Op: wire.OpRecord{Kind: wire.OpNewLocal, Holder: s1.Root().Obj}},
		{Op: wire.OpRecord{Kind: wire.OpNewLocal, Holder: ids.ObjectID{Site: 1, Seq: 999}}},
	}
	if _, err := s1.ApplyBatch(ops); !errors.Is(err, heap.ErrNoSuchObject) {
		t.Fatalf("err = %v, want ErrNoSuchObject", err)
	}
	if got := j.Store().Stats().Appends; got != base {
		t.Fatalf("staging failure appended %d records", got-base)
	}
	if s1.NumObjects() != 1 {
		t.Fatalf("staging failure applied ops: %d objects", s1.NumObjects())
	}
	// Bad deferred index: structural rejection.
	bad := []wire.BatchOp{{Op: wire.OpRecord{Kind: wire.OpNewLocal}, HolderFrom: 5}}
	if _, err := s1.ApplyBatch(bad); !errors.Is(err, site.ErrBatchRef) {
		t.Fatalf("err = %v, want ErrBatchRef", err)
	}
}

// TestBatchJournalGroupAppend: a committed batch is one WAL append
// regardless of size, and recovery replays it into the same state.
func TestBatchJournalGroupAppend(t *testing.T) {
	dir := t.TempDir()
	popts := site.PersistOptions{SnapshotEvery: 1 << 30, Store: persist.Options{NoSync: true}}
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	j, err := site.OpenPersist(filepath.Join(dir, "site-1"), popts)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := site.Recover(1, net, site.DefaultOptions(), j)
	if err != nil {
		t.Fatal(err)
	}
	root := s1.Root().Obj
	ops := []wire.BatchOp{
		{Op: wire.OpRecord{Kind: wire.OpNewLocal, Holder: root}},
		{Op: wire.OpRecord{Kind: wire.OpNewLocal}, HolderFrom: 1},
		{Op: wire.OpRecord{Kind: wire.OpAddRef, Holder: root}, TargetFrom: 2},
		{Op: wire.OpRecord{Kind: wire.OpDropRefs, Holder: root}, TargetFrom: 1},
	}
	base := j.Store().Stats().Appends
	refs, err := s1.ApplyBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Store().Stats().Appends - base; got != 1 {
		t.Fatalf("batch appended %d records, want 1", got)
	}
	wantObjects := s1.NumObjects()
	liveHas := make(map[ids.ObjectID]bool, len(refs))
	for _, ref := range refs {
		if ref.Obj != (ids.ObjectID{}) {
			liveHas[ref.Obj] = s1.HasObject(ref.Obj)
		}
	}
	// Crash (no snapshot) and recover: the batch record replays through
	// the group path and re-mints identical identities.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	net.Unregister(1)
	j2, err := site.OpenPersist(filepath.Join(dir, "site-1"), popts)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	s1b, err := site.Recover(1, netsim.NewSim(netsim.Faults{Seed: 2}), site.DefaultOptions(), j2)
	if err != nil {
		t.Fatal(err)
	}
	if got := s1b.NumObjects(); got != wantObjects {
		t.Fatalf("recovered %d objects, want %d", got, wantObjects)
	}
	for obj, want := range liveHas {
		if got := s1b.HasObject(obj); got != want {
			t.Fatalf("recovered site: HasObject(%v) = %v, live had %v", obj, got, want)
		}
	}
}

// TestRecoverRejectsMutatorOpRecord: a mutator commit is journaled as a
// Batch record, so an Op record of a mutator kind was not written by
// this code; recovery names it instead of guessing what it meant.
func TestRecoverRejectsMutatorOpRecord(t *testing.T) {
	dir := t.TempDir()
	popts := site.PersistOptions{SnapshotEvery: 1 << 30, Store: persist.Options{NoSync: true}}
	j, err := site.OpenPersist(filepath.Join(dir, "site-1"), popts)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := site.Recover(1, netsim.NewSim(netsim.Faults{Seed: 1}), site.DefaultOptions(), j)
	if err != nil {
		t.Fatal(err)
	}
	// Record 0 is the recovery's own Refresh marker; forge record 1.
	if err := j.Append(&wire.WALRecord{Width: 1, Op: &wire.OpRecord{Kind: wire.OpNewRemote, Holder: s1.Root().Obj, Site: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := site.OpenPersist(filepath.Join(dir, "site-1"), popts)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	net := netsim.NewSim(netsim.Faults{Seed: 2})
	_, err = site.Recover(1, net, site.DefaultOptions(), j2)
	if err == nil || !strings.Contains(err.Error(), "wal record 1") || !strings.Contains(err.Error(), "NewRemote") {
		t.Fatalf("recover over a mutator Op record: err = %v, want one naming wal record 1 and NewRemote", err)
	}
}

// TestEnvelopeDispatchSingleAckFlush: dispatching a received envelope
// settles all inner mutator frames but emits at most one FrameAck per
// stream (coalesced into the response), not one per frame.
func TestEnvelopeDispatchSingleAckFlush(t *testing.T) {
	dir := t.TempDir()
	popts := site.PersistOptions{Store: persist.Options{NoSync: true}}
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	j1, err := site.OpenPersist(filepath.Join(dir, "site-1"), popts)
	if err != nil {
		t.Fatal(err)
	}
	defer j1.Close()
	s1, err := site.Recover(1, net, site.DefaultOptions(), j1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := site.OpenPersist(filepath.Join(dir, "site-2"), popts)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	s2, err := site.Recover(2, net, site.DefaultOptions(), j2)
	if err != nil {
		t.Fatal(err)
	}
	_ = s2
	root := s1.Root().Obj
	ops := make([]wire.BatchOp, 8)
	for i := range ops {
		ops[i] = wire.BatchOp{Op: wire.OpRecord{Kind: wire.OpNewRemote, Holder: root, Site: 2}}
	}
	if _, err := s1.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	run(t, net)
	// The 8 creates arrived in one envelope; site 2's mutator-stream ack
	// for them flushed once (plus any later re-acks on subsequent
	// frames) — far fewer than one per create.
	acks := s2.FrameStats().AcksSent
	if acks == 0 || acks >= 8 {
		t.Fatalf("acks sent = %d, want coalesced (0 < acks < 8)", acks)
	}
	st := s1.FrameStats()
	if st.OutboxRetained != 0 {
		t.Fatalf("outbox retained = %d after acks, want 0", st.OutboxRetained)
	}
}
