package site

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/wire"
	"causalgc/persist"
)

// mustRef wraps a (Ref, error) mutator result, failing the test on error.
func mustRef(t *testing.T) func(heap.Ref, error) heap.Ref {
	return func(ref heap.Ref, err error) heap.Ref {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}
}

// settleSharded runs Collect+Refresh cycles until the live object
// count stops changing (cross-shard GGD cascades take a few rounds of
// assert/destroy exchange between the shards).
func settleSharded(t *testing.T, s *Site, net *netsim.Sim) {
	t.Helper()
	prev := -1
	for i := 0; i < 8; i++ {
		if _, err := s.Collect(); err != nil {
			t.Fatal(err)
		}
		if err := s.Refresh(); err != nil {
			t.Fatal(err)
		}
		if net != nil {
			if _, err := net.Run(0); err != nil {
				t.Fatal(err)
			}
		}
		if n := s.NumObjects(); n == prev {
			return
		} else {
			prev = n
		}
	}
}

// TestShardedLifecycle drives the full cross-shard mutator surface on
// a volatile 4-shard site: spread placement, cross-shard reference
// transfer, and GGD reclamation across the shard boundary.
func TestShardedLifecycle(t *testing.T) {
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	s := NewSharded(1, net, DefaultOptions(), 4)
	root := s.Root().Obj

	a := mustRef(t)(s.NewLocal(root)) // rr → shard 0
	b := mustRef(t)(s.NewLocal(root)) // rr → shard 1
	if got := s.clusterShardIdx(b.Cluster); got != 1 {
		t.Fatalf("second root cluster placed on shard %d, want 1", got)
	}
	if !s.HasObject(a.Obj) || !s.HasObject(b.Obj) {
		t.Fatal("cross-shard creations missing")
	}
	if s.NumObjects() != 3 {
		t.Fatalf("NumObjects = %d, want 3", s.NumObjects())
	}

	// Cross-shard edge: b (shard 1) acquires a reference to a (shard 0).
	if err := s.SendRef(root, b, a); err != nil {
		t.Fatal(err)
	}
	// Root drops a: still live via b's slot.
	if err := s.DropRefs(root, a); err != nil {
		t.Fatal(err)
	}
	settleSharded(t, s, nil)
	if !s.HasObject(a.Obj) {
		t.Fatal("a reclaimed while b still holds it")
	}
	// Root drops b: the whole chain is garbage; the cascade crosses the
	// shard boundary (b's removal destroys its edge to a).
	if err := s.DropRefs(root, b); err != nil {
		t.Fatal(err)
	}
	settleSharded(t, s, nil)
	if s.NumObjects() != 1 {
		t.Fatalf("NumObjects = %d after dropping the chain, want 1 (root)", s.NumObjects())
	}
	if !s.ClusterRemoved(a.Cluster) || !s.ClusterRemoved(b.Cluster) {
		t.Error("GGD did not remove both clusters")
	}
}

// TestShardedRemotePeer checks a 3-shard site against a one-shard
// remote peer: remote creation, transfer, reclamation.
func TestShardedRemotePeer(t *testing.T) {
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	s := NewSharded(1, net, DefaultOptions(), 3)
	peer := New(2, net, DefaultOptions())
	root := s.Root().Obj

	a := mustRef(t)(s.NewLocal(root)) // shard 0
	b := mustRef(t)(s.NewLocal(root)) // shard 1
	rem := mustRef(t)(s.NewRemote(b.Obj, 2))
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	if !peer.HasObject(rem.Obj) {
		t.Fatal("remote object not created at peer")
	}
	// Third-party transfer from a sharded holder: root hands a to b
	// across the shard boundary, then b forwards it to the remote
	// object.
	if err := s.SendRef(root, b, a); err != nil {
		t.Fatal(err)
	}
	if err := s.SendRef(b.Obj, rem, a); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	// Drop everything: the remote chain unwinds across both sites.
	if err := s.DropRefs(root, a); err != nil {
		t.Fatal(err)
	}
	if err := s.DropRefs(root, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		settleSharded(t, s, net)
		if _, err := peer.Collect(); err != nil {
			t.Fatal(err)
		}
		if err := peer.Refresh(); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(0); err != nil {
			t.Fatal(err)
		}
		if s.NumObjects() == 1 && peer.NumObjects() == 1 {
			break
		}
	}
	if s.NumObjects() != 1 {
		t.Errorf("sharded site: NumObjects = %d, want 1", s.NumObjects())
	}
	if peer.NumObjects() != 1 {
		t.Errorf("peer: NumObjects = %d, want 1", peer.NumObjects())
	}
}

// TestShardedSoloEquivalence runs one deterministic single-threaded
// script against a 1-shard and a 4-shard site: the shared identity
// mint must produce identical references, and the final heaps must
// match object for object.
func TestShardedSoloEquivalence(t *testing.T) {
	script := func(s *Site) (refs []heap.Ref, _ *Site) {
		root := s.Root().Obj
		a := mustRef(t)(s.NewLocal(root))
		b := mustRef(t)(s.NewLocal(root))
		c := mustRef(t)(s.NewLocal(root))
		cl, err := s.NewCluster()
		if err != nil {
			t.Fatal(err)
		}
		d := mustRef(t)(s.NewLocalIn(root, cl))
		if err := s.SendRef(root, a, b); err != nil { // a acquires b
			t.Fatal(err)
		}
		if err := s.SendRef(root, b, c); err != nil { // b acquires c
			t.Fatal(err)
		}
		if err := s.SendRef(root, d, a); err != nil { // d acquires a
			t.Fatal(err)
		}
		if err := s.DropRefs(root, c); err != nil { // c lives via b
			t.Fatal(err)
		}
		if err := s.DropRefs(root, b); err != nil { // b lives via a
			t.Fatal(err)
		}
		settleSharded(t, s, nil)
		return []heap.Ref{a, b, c, d}, s
	}

	netA := netsim.NewSim(netsim.Faults{Seed: 1})
	refsA, solo := script(NewSharded(1, netA, DefaultOptions(), 1))
	netB := netsim.NewSim(netsim.Faults{Seed: 1})
	refsB, striped := script(NewSharded(1, netB, DefaultOptions(), 4))

	if !reflect.DeepEqual(refsA, refsB) {
		t.Fatalf("minted refs diverge:\n 1-shard: %v\n 4-shard: %v", refsA, refsB)
	}
	rootA, objsA := solo.Snapshot()
	rootB, objsB := striped.Snapshot()
	if rootA != rootB {
		t.Fatalf("roots diverge: %v vs %v", rootA, rootB)
	}
	if !reflect.DeepEqual(objsA, objsB) {
		t.Fatalf("heaps diverge:\n 1-shard: %+v\n 4-shard: %+v", objsA, objsB)
	}
}

// shardHas reports whether shard i of s holds obj.
func shardHas(s *Site, i int, obj ids.ObjectID) bool {
	r := s.shards[i]
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.heap.Object(obj) != nil
}

// openShardPersist opens a journal under dir.
func openShardPersist(t *testing.T, dir string, every int) *Persist {
	t.Helper()
	p, err := OpenPersist(dir, PersistOptions{SnapshotEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestShardedRecoveryDeterminism kills a 3-shard site twice and checks
// every recovery replays the shard-tagged WAL to the same state: each
// shard's deliveries replay in its journal order.
func TestShardedRecoveryDeterminism(t *testing.T) {
	dir := t.TempDir()
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	p := openShardPersist(t, dir, 3)
	s, err := RecoverSharded(1, net, DefaultOptions(), p, 3)
	if err != nil {
		t.Fatal(err)
	}
	root := s.Root().Obj
	a := mustRef(t)(s.NewLocal(root))
	b := mustRef(t)(s.NewLocal(root))
	if err := s.SendRef(root, a, b); err != nil {
		t.Fatal(err)
	}
	cl, err := s.NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	_ = mustRef(t)(s.NewLocalIn(root, cl))
	if err := s.DropRefs(root, b); err != nil {
		t.Fatal(err)
	}
	settleSharded(t, s, nil)
	wantRoot, wantObjs := s.Snapshot()

	for round := 1; round <= 2; round++ {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		net.Unregister(1)
		net.DropPendingTo(1)
		p = openShardPersist(t, dir, 3)
		s, err = RecoverSharded(1, net, DefaultOptions(), p, 3)
		if err != nil {
			t.Fatalf("recovery %d: %v", round, err)
		}
		if got := s.ShardCount(); got != 3 {
			t.Fatalf("recovery %d: shard count %d, want 3 (sticky)", round, got)
		}
		gotRoot, gotObjs := s.Snapshot()
		if gotRoot != wantRoot || !reflect.DeepEqual(gotObjs, wantObjs) {
			t.Fatalf("recovery %d diverged:\n want %+v\n got  %+v", round, wantObjs, gotObjs)
		}
	}
}

// TestShardCrashMidHandoff strands a cross-shard creation in flight
// (the executing shard journaled and emitted it, the owning shard
// never saw it) and crashes: recovery must finish the
// creation through the outbox re-send path, exactly like a lost
// network frame.
func TestShardCrashMidHandoff(t *testing.T) {
	dir := t.TempDir()
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	p := openShardPersist(t, dir, 1000)
	s, err := RecoverSharded(1, net, DefaultOptions(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	root := s.Root().Obj
	_ = mustRef(t)(s.NewLocal(root)) // rr → shard 0 (local, drained)

	// Bypass Site.commit: shard 0 journals the op and emits the Create
	// for shard 1, but nobody delivers it — the frame is in flight when
	// the site dies.
	r0 := s.shards[0]
	var one [1]heap.Ref
	r0.mu.Lock()
	err = r0.commitLocked([]wire.BatchOp{{Op: wire.OpRecord{Kind: wire.OpNewLocal, Holder: root}}}, one[:]) // rr → shard 1: cross-shard create
	r0.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	ref := one[0]
	if got := s.clusterShardIdx(ref.Cluster); got != 1 {
		t.Fatalf("cluster placed on shard %d, want 1", got)
	}
	if len(r0.handoff) != 1 {
		t.Fatalf("%d frame(s) in flight, want the one creation frame", len(r0.handoff))
	}
	if shardHas(s, 1, ref.Obj) {
		t.Fatal("object materialised without a delivery")
	}
	if err := p.Close(); err != nil { // crash: a frame in flight is volatile
		t.Fatal(err)
	}
	net.Unregister(1)

	p2 := openShardPersist(t, dir, 1000)
	s2, err := RecoverSharded(1, net, DefaultOptions(), p2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.HasObject(ref.Obj) {
		t.Fatal("stranded cross-shard creation not recovered")
	}
	if got := s2.clusterShardIdx(ref.Cluster); got != 1 {
		t.Errorf("recovered cluster routed to shard %d, want 1", got)
	}
	if !shardHas(s2, 1, ref.Obj) {
		t.Error("recovered object not on its owning shard")
	}
}

// TestShardCheckpointWithFrameInFlight takes a snapshot while a
// goroutine holds a cross-shard creation between its sender's lock and
// its receiver's: the checkpoint stops the world to export, not to
// drain, because the frame's outbox row is in the image. After a crash
// the object materialises on its owning shard from that row, and the
// late original is then a settled duplicate.
func TestShardCheckpointWithFrameInFlight(t *testing.T) {
	dir := t.TempDir()
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	p := openShardPersist(t, dir, 1000)
	s, err := RecoverSharded(1, net, DefaultOptions(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	root := s.Root().Obj
	_ = mustRef(t)(s.NewLocal(root)) // rr → shard 0

	r0 := s.shards[0]
	var one [1]heap.Ref
	r0.mu.Lock()
	err = r0.commitLocked([]wire.BatchOp{{Op: wire.OpRecord{Kind: wire.OpNewLocal, Holder: root}}}, one[:]) // rr → shard 1
	inFlight := r0.handoff
	r0.handoff = nil
	r0.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	ref := one[0]
	if len(inFlight) != 1 || s.clusterShardIdx(ref.Cluster) != 1 {
		t.Fatalf("%d frame(s) in flight toward shard %d, want one toward shard 1", len(inFlight), s.clusterShardIdx(ref.Cluster))
	}
	if err := s.Checkpoint(); err != nil { // truncates the WAL: only the image remembers the commit
		t.Fatal(err)
	}
	if shardHas(s, 1, ref.Obj) {
		t.Fatal("the checkpoint delivered a frame it does not hold")
	}
	if err := p.Close(); err != nil { // crash
		t.Fatal(err)
	}
	net.Unregister(1)

	p2 := openShardPersist(t, dir, 1000)
	defer p2.Close()
	s2, err := RecoverSharded(1, net, DefaultOptions(), p2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !shardHas(s2, 1, ref.Obj) {
		t.Fatal("creation in flight at the checkpoint not recovered on its owning shard")
	}
	if fs := s2.FrameStats(); fs.OutboxResends != 1 || fs.OutboxRetained != 0 {
		t.Fatalf("recovery re-sent %d outbox row(s) and retains %d, want the snapshot's one row re-sent and retired", fs.OutboxResends, fs.OutboxRetained)
	}
	_, want := s2.Snapshot()
	s2.cascade(inFlight) // the goroutine finally delivers
	if _, got := s2.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the late original was applied a second time:\n want %+v\n got  %+v", want, got)
	}
}

// stackDepth is an Observer recording the deepest call stack any
// ClusterRemoved callback ran at.
type stackDepth struct{ deepest int }

func (d *stackDepth) ClusterRemoved(ids.SiteID, ids.ClusterID) {
	pcs := make([]uintptr, 4096)
	if n := runtime.Callers(0, pcs); n > d.deepest {
		d.deepest = n
	}
}
func (d *stackDepth) Collected(ids.SiteID, heap.CollectStats) {}

// TestShardCascadeConstantStack pins the own-site cascade as a
// worklist: reclaiming a chain whose links alternate between the two
// shards of a site hands a frame to the sibling once per link, and the
// removal of the last link must run no deeper in the stack than the
// removal of the tenth.
func TestShardCascadeConstantStack(t *testing.T) {
	deepest := func(k int) int {
		obs := &stackDepth{}
		opts := DefaultOptions()
		opts.Observer = obs
		s := NewSharded(1, netsim.NewSim(netsim.Faults{Seed: 1}), opts, 2)
		root := s.Root().Obj
		// Every link is born under the root (rr placement alternates the
		// shards), handed to its predecessor and dropped by the root.
		head := mustRef(t)(s.NewLocal(root))
		prev := head
		for i := 1; i < k; i++ {
			next := mustRef(t)(s.NewLocal(root))
			if s.clusterShardIdx(next.Cluster) == s.clusterShardIdx(prev.Cluster) {
				t.Fatalf("links %d and %d share a shard", i-1, i)
			}
			if err := s.SendRef(root, prev, next); err != nil {
				t.Fatal(err)
			}
			if err := s.DropRefs(root, next); err != nil {
				t.Fatal(err)
			}
			prev = next
		}
		if got := s.NumObjects(); got != k+1 {
			t.Fatalf("k=%d: %d objects before the drop, want %d", k, got, k+1)
		}
		obs.deepest = 0
		if err := s.DropRefs(root, head); err != nil { // one op unwinds the whole chain
			t.Fatal(err)
		}
		if got := s.NumObjects(); got != 1 {
			t.Fatalf("k=%d: %d objects after dropping the head, want 1", k, got)
		}
		return obs.deepest
	}
	if short, long := deepest(10), deepest(1000); short != long || short == 0 {
		t.Fatalf("deepest removal stack: %d frames at k=10, %d at k=1000", short, long)
	}
}

// TestShardedMergedFloorNeverRegresses pins the ack-watermark-merge
// rule: a Refresh floor advisory must never exceed the smallest
// sequence ANY shard still retains toward the peer — one shard
// retaining nothing must not advance the floor past a sibling's
// unacknowledged frame (the peer would retire it undelivered).
func TestShardedMergedFloorNeverRegresses(t *testing.T) {
	dir := t.TempDir()
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	p := openShardPersist(t, dir, 1000)
	s, err := RecoverSharded(1, net, DefaultOptions(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	var advances []wire.StreamAdvance
	net.Register(2, func(from ids.SiteID, pl netsim.Payload) {
		if adv, ok := pl.(wire.StreamAdvance); ok && adv.Stream == core.StreamMut {
			advances = append(advances, adv)
		}
	})
	root := s.Root().Obj
	a := mustRef(t)(s.NewLocal(root)) // shard 0
	b := mustRef(t)(s.NewLocal(root)) // shard 1
	if got := s.clusterShardIdx(b.Cluster); got != 1 {
		t.Fatalf("b placed on shard %d, want 1", got)
	}
	_ = mustRef(t)(s.NewRemote(a.Obj, 2)) // mut seq 1 to peer, retained by shard 0
	_ = mustRef(t)(s.NewRemote(b.Obj, 2)) // mut seq 2 to peer, retained by shard 1

	// Shard 1's frame is retired through another path (simulated);
	// shard 0 still retains seq 1 unacknowledged.
	r1 := s.shards[1]
	r1.mu.Lock()
	r1.outbox = core.NewLedger[outKey, netsim.Payload](maxOutbox, r1.outboxEvictedLocked)
	r1.mu.Unlock()

	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	for _, adv := range advances {
		if adv.Floor > 1 {
			t.Fatalf("floor advisory %d past sibling's retained seq 1", adv.Floor)
		}
	}

	// Once no shard retains anything, the merged floor advances past
	// the abandoned gap (seq 1 was never acknowledged).
	r0 := s.shards[0]
	r0.mu.Lock()
	r0.outbox = core.NewLedger[outKey, netsim.Payload](maxOutbox, r0.outboxEvictedLocked)
	r0.mu.Unlock()
	advances = nil
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(advances) == 0 {
		t.Fatal("no floor advisory once nothing is retained")
	}
	for _, adv := range advances {
		if adv.Floor != 3 {
			t.Errorf("floor = %d, want 3 (one past the last assigned seq)", adv.Floor)
		}
	}
}

// TestShardedHasObjectRoutingLag: when the objMap routing entry lags (a
// restore or sweep race), HasObject must scan every shard before
// reporting absence — an object live on shard >0 is not a false
// negative.
func TestShardedHasObjectRoutingLag(t *testing.T) {
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	s := NewSharded(1, net, DefaultOptions(), 3)
	root := s.Root().Obj
	_ = mustRef(t)(s.NewLocal(root))  // rr → shard 0
	b := mustRef(t)(s.NewLocal(root)) // rr → shard 1
	if got := s.clusterShardIdx(b.Cluster); got != 1 {
		t.Fatalf("b placed on shard %d, want 1", got)
	}
	s.objMap.Delete(b.Obj) // simulate the lagging routing entry
	if !s.HasObject(b.Obj) {
		t.Fatal("HasObject false negative for a live object on shard 1")
	}
	if s.HasObject(ids.ObjectID{Site: 1, Seq: 1 << 40}) {
		t.Fatal("HasObject true for a phantom object")
	}
}

// TestShardedAckCountedOncePerDelivery: a FrameAck fans out to every
// shard (retirement is per shard) but the site-level counter must tick
// once per network delivery, not once per shard.
func TestShardedAckCountedOncePerDelivery(t *testing.T) {
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	s := NewSharded(1, net, DefaultOptions(), 4)
	root := s.Root().Obj
	a := mustRef(t)(s.NewLocal(root))
	_ = mustRef(t)(s.NewRemote(a.Obj, 2)) // opens the mut stream toward peer 2
	before := s.FrameStats().AcksReceived
	s.handleNet(2, wire.FrameAck{Stream: core.StreamMut, Seq: 1})
	if got := s.FrameStats().AcksReceived - before; got != 1 {
		t.Fatalf("one FrameAck counted %d times across %d shards, want 1", got, s.ShardCount())
	}
}

// TestCheckpointAllSkipsWhenNotDue: two drainers racing past
// maybeCheckpoint's unlocked Due check serialise on ckptMu; the loser
// must skip the redundant stop-the-world snapshot the winner just took.
func TestCheckpointAllSkipsWhenNotDue(t *testing.T) {
	dir := t.TempDir()
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	p := openShardPersist(t, dir, 4)
	s, err := RecoverSharded(1, net, DefaultOptions(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	root := s.Root().Obj
	for i := 0; i < 6; i++ {
		_ = mustRef(t)(s.NewLocal(root))
	}
	base := p.Store().Stats().Snapshots
	if base == 0 {
		t.Fatal("expected at least one due checkpoint after 6 appends at SnapshotEvery=4")
	}
	// The losing racer: it observed Due before ckptMu, the winner
	// snapshotted meanwhile and reset the record count.
	if err := s.checkpointAll(true); err != nil {
		t.Fatal(err)
	}
	if got := p.Store().Stats().Snapshots; got != base {
		t.Fatalf("redundant stop-the-world snapshot: %d → %d", base, got)
	}
	// The unconditional path (public Checkpoint, recovery) still
	// snapshots on demand.
	if err := s.checkpointAll(false); err != nil {
		t.Fatal(err)
	}
	if got := p.Store().Stats().Snapshots; got != base+1 {
		t.Fatalf("forced checkpoint skipped: snapshots %d, want %d", got, base+1)
	}
}

// outboxFramesTo maps every retained mutator frame toward peer to the
// object its Create payload carries, across all shards. A sequence
// bound to two different payloads (or two frames sharing a sequence)
// fails the test via the count check at the call site.
func outboxFramesTo(s *Site, peer ids.SiteID) (map[uint64]ids.ObjectID, int) {
	out := make(map[uint64]ids.ObjectID)
	n := 0
	for _, r := range s.shards {
		r.mu.Lock()
		r.outbox.Each(func(k outKey, p netsim.Payload, seq uint64) {
			if k.to != peer {
				return
			}
			if c, ok := p.(wire.Create); ok {
				n++
				out[seq] = c.Obj
			}
		})
		r.mu.Unlock()
	}
	return out, n
}

// TestShardedConcurrentSeqReplayExact pins the stream-sequence
// pre-mint contract under real concurrency: shards committing remote
// creations toward the same peer draw from the shared per-(peer,
// stream) counter, and the WAL append order need not match the draw
// order. Replay must still bind every rebuilt outbox frame to the
// sequence the live run sent — a rebind would let a journaled FrameAck
// retire a frame the peer never received, losing it permanently.
func TestShardedConcurrentSeqReplayExact(t *testing.T) {
	dir := t.TempDir()
	net := netsim.NewAsync(netsim.Faults{Seed: 7})
	defer net.Close()
	p := openShardPersist(t, dir, 1<<20) // no snapshot: pure WAL replay
	const shards = 4
	s, err := RecoverSharded(1, net, DefaultOptions(), p, shards)
	if err != nil {
		t.Fatal(err)
	}
	root := s.Root().Obj
	// One anchor per shard (rr placement spreads the root's children),
	// so the workers commit on distinct shard locks.
	anchors := make([]heap.Ref, shards)
	for i := range anchors {
		anchors[i] = mustRef(t)(s.NewLocal(root))
	}
	// Peer 2 is never registered: the async transport drops every frame
	// toward it, so all of them stay retained in the shards' outboxes.
	const perWorker = 32
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(holder ids.ObjectID) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := s.NewRemote(holder, 2); err != nil {
					t.Error(err)
					return
				}
			}
		}(anchors[w].Obj)
	}
	wg.Wait()
	net.Quiesce()
	if t.Failed() {
		t.Fatal("worker commit failed")
	}

	want, n := outboxFramesTo(s, 2)
	if n != shards*perWorker || len(want) != n {
		t.Fatalf("retained %d frames / %d distinct seqs toward the peer, want %d of each",
			n, len(want), shards*perWorker)
	}
	if err := p.Close(); err != nil { // crash
		t.Fatal(err)
	}

	p2 := openShardPersist(t, dir, 1<<20)
	s2, err := RecoverSharded(1, net, DefaultOptions(), p2, shards)
	if err != nil {
		t.Fatal(err)
	}
	got, n2 := outboxFramesTo(s2, 2)
	if n2 != len(got) {
		t.Fatalf("recovery rebound %d frames onto %d seqs: duplicate sequences", n2, len(got))
	}
	if !reflect.DeepEqual(want, got) {
		for seq, obj := range want {
			if got[seq] != obj {
				t.Errorf("seq %d: live frame carried %v, replay rebound it to %v", seq, obj, got[seq])
			}
		}
		t.Fatalf("replay rebound outbox sequences (%d live vs %d recovered rows)", len(want), len(got))
	}
}

// TestRecoverStickyWidth: a journal written at width k recovers at
// width k whatever width is requested (the default included), both
// from a snapshot and from the WAL tail alone before the first
// checkpoint, and the rebuilt outbox binds every retained frame to the
// sequence the live run sent.
func TestRecoverStickyWidth(t *testing.T) {
	for _, k := range []int{1, 3} {
		for _, snapshot := range []bool{true, false} {
			for _, requested := range []int{0, 2, 5} { // 0: Recover, the default width
				t.Run(fmt.Sprintf("k=%d/snapshot=%v/requested=%d", k, snapshot, requested), func(t *testing.T) {
					dir := t.TempDir()
					net := netsim.NewSim(netsim.Faults{Seed: 1})
					p := openShardPersist(t, dir, 1<<20)
					s, err := RecoverSharded(1, net, DefaultOptions(), p, k)
					if err != nil {
						t.Fatal(err)
					}
					root := s.Root().Obj
					// Peer 2 never runs: every frame toward it stays retained.
					for i := 0; i < 4; i++ {
						a := mustRef(t)(s.NewLocal(root))
						_ = mustRef(t)(s.NewRemote(a.Obj, 2))
					}
					if snapshot {
						if err := s.Checkpoint(); err != nil {
							t.Fatal(err)
						}
						a := mustRef(t)(s.NewLocal(root)) // a WAL tail past the snapshot
						_ = mustRef(t)(s.NewRemote(a.Obj, 2))
					}
					want, n := outboxFramesTo(s, 2)
					if n == 0 || len(want) != n {
						t.Fatalf("retained %d frames on %d seqs before the crash", n, len(want))
					}
					wantRoot, wantObjs := s.Snapshot()
					if err := p.Close(); err != nil { // crash
						t.Fatal(err)
					}
					net.Unregister(1)

					p2 := openShardPersist(t, dir, 1<<20)
					defer p2.Close()
					var s2 *Site
					if requested == 0 {
						s2, err = Recover(1, net, DefaultOptions(), p2)
					} else {
						s2, err = RecoverSharded(1, net, DefaultOptions(), p2, requested)
					}
					if err != nil {
						t.Fatal(err)
					}
					if got := s2.ShardCount(); got != k {
						t.Fatalf("recovered at width %d, want the journal's %d", got, k)
					}
					if got, n2 := outboxFramesTo(s2, 2); n2 != len(got) || !reflect.DeepEqual(got, want) {
						t.Fatalf("outbox seq→payload diverged:\n want %v\n got  %v", want, got)
					}
					if gotRoot, gotObjs := s2.Snapshot(); gotRoot != wantRoot || !reflect.DeepEqual(gotObjs, wantObjs) {
						t.Fatalf("heap diverged:\n want %+v\n got  %+v", wantObjs, gotObjs)
					}
				})
			}
		}
	}
}

// TestRecoverRefusesForeignShardTag: WAL records are input from disk. A
// record tagged with a shard the directory's width does not have, or
// stamped with another width, is refused by index — not replayed on
// shard 0.
func TestRecoverRefusesForeignShardTag(t *testing.T) {
	for name, rec := range map[string]*wire.WALRecord{
		"shard past the width": {Shard: 2, Width: 2, Batch: &wire.BatchRecord{}},
		"negative shard":       {Shard: -1, Width: 2, Batch: &wire.BatchRecord{}},
		"another width":        {Shard: 1, Width: 4, Batch: &wire.BatchRecord{}},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			net := netsim.NewSim(netsim.Faults{Seed: 1})
			p := openShardPersist(t, dir, 1<<20)
			s, err := RecoverSharded(1, net, DefaultOptions(), p, 2)
			if err != nil {
				t.Fatal(err)
			}
			_ = mustRef(t)(s.NewLocal(s.Root().Obj)) // WAL record 1, after recovery's own Refresh marker
			if err := p.Append(rec); err != nil {
				t.Fatal(err)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			net.Unregister(1)

			p2 := openShardPersist(t, dir, 1<<20)
			defer p2.Close()
			_, err = RecoverSharded(1, net, DefaultOptions(), p2, 2)
			if err == nil || !strings.Contains(err.Error(), "wal record 2") {
				t.Fatalf("recovery of a foreign shard tag: %v, want a refusal naming wal record 2", err)
			}
		})
	}
}

// TestUnjournaledCycleRunsOnNoShard: a site-wide cycle whose marker
// shard 0 cannot journal must not run on the sibling shards either — a
// sweep of a last proxy advances that engine's clock and ships an Ē
// stamp no replay will reproduce.
func TestUnjournaledCycleRunsOnNoShard(t *testing.T) {
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	net.Register(2, func(ids.SiteID, netsim.Payload) {}) // never answers: shard 1 keeps a row to re-send
	p := openShardPersist(t, t.TempDir(), 1<<20)
	s, err := RecoverSharded(1, net, Options{}, p, 2) // AutoCollect off: only a cycle sweeps
	if err != nil {
		t.Fatal(err)
	}
	root := s.Root().Obj
	_ = mustRef(t)(s.NewLocal(root))  // rr → shard 0
	b := mustRef(t)(s.NewLocal(root)) // rr → shard 1
	y := mustRef(t)(s.NewLocalIn(b.Obj, b.Cluster))
	_ = mustRef(t)(s.NewRemote(y.Obj, 2))
	// y is local garbage in a live cluster of shard 1, holding the
	// cluster's last proxy of a remote object: sweeping it is an edge
	// destruction.
	if err := s.DropRefs(b.Obj, y); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	if !shardHas(s, 1, y.Obj) {
		t.Fatal("y is not on shard 1 awaiting a collection")
	}
	if err := p.Close(); err != nil { // the journal fails from here on
		t.Fatal(err)
	}

	type state struct {
		objs   []ObjectSnapshot
		clocks [2]uint64
		sent   int
	}
	observe := func() state {
		_, objs := s.Snapshot()
		return state{objs, [2]uint64{s.Clock(s.Root().Cluster), s.Clock(b.Cluster)}, net.Stats().TotalSent()}
	}
	want := observe()
	if _, err := s.Collect(); !errors.Is(err, persist.ErrClosed) {
		t.Fatalf("Collect with the journal closed: %v", err)
	}
	if got := observe(); !reflect.DeepEqual(got, want) {
		t.Errorf("the unjournaled Collect ran:\n want %+v\n got  %+v", want, got)
	}
	want = observe()
	if err := s.Refresh(); !errors.Is(err, persist.ErrClosed) {
		t.Fatalf("Refresh with the journal closed: %v", err)
	}
	if got := observe(); !reflect.DeepEqual(got, want) {
		t.Errorf("the unjournaled Refresh ran:\n want %+v\n got  %+v", want, got)
	}
}

// TestJournaledOpsCarryMints: there is one journaling rule — every
// mutator commit, the singleton methods' groups of one included, is one
// Batch record whose ops carry the identities, placement and stream
// sequence the commit drew, on a one-shard site exactly as on a striped
// one; Op records are site-wide cycle markers only; and every record is
// stamped with the stripe width.
func TestJournaledOpsCarryMints(t *testing.T) {
	for _, width := range []int{1, 3} {
		dir := t.TempDir()
		net := netsim.NewSim(netsim.Faults{Seed: 1})
		p := openShardPersist(t, dir, 1<<20)
		s, err := RecoverSharded(1, net, DefaultOptions(), p, width)
		if err != nil {
			t.Fatal(err)
		}
		root := s.Root().Obj
		a := mustRef(t)(s.NewLocal(root))
		cl, err := s.NewCluster()
		if err != nil {
			t.Fatal(err)
		}
		_ = mustRef(t)(s.NewLocalIn(root, cl))
		rem := mustRef(t)(s.NewRemote(a.Obj, 2))
		if err := s.SendRef(a.Obj, rem, a); err != nil { // a sends its own reference
			t.Fatal(err)
		}
		if err := s.DropRefs(a.Obj, rem); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyBatch([]wire.BatchOp{
			{Op: wire.OpRecord{Kind: wire.OpNewLocal, Holder: root}},
			{Op: wire.OpRecord{Kind: wire.OpNewRemote, Site: 2}, HolderFrom: 1},
		}); err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		net.Unregister(1)

		p2 := openShardPersist(t, dir, 1<<20)
		_, recs, err := p2.Load()
		if err != nil {
			t.Fatal(err)
		}
		p2.Close()
		check := func(op wire.OpRecord) {
			var missing []string
			need := func(name string, set bool) {
				if !set {
					missing = append(missing, name)
				}
			}
			switch op.Kind {
			case wire.OpNewLocal:
				need("MintObj", op.MintObj != 0)
				need("MintClu", op.MintClu != 0)
				need("Place", op.Place != 0)
			case wire.OpNewLocalIn:
				need("MintObj", op.MintObj != 0)
				need("Place", op.Place != 0)
			case wire.OpNewCluster:
				need("MintClu", op.MintClu != 0)
				need("Place", op.Place != 0)
			case wire.OpNewRemote:
				need("MintObj", op.MintObj != 0)
				need("MutSeq", op.MutSeq != 0)
			case wire.OpSendRef:
				need("MutSeq", op.MutSeq != 0)
			}
			if len(missing) > 0 {
				t.Errorf("width %d: journaled %v lacks %v: %+v", width, op.Kind, missing, op)
			}
		}
		// One Batch record per commit, in commit order (the shards of a
		// striped site interleave Deliver records of their handoffs).
		var commits [][]wire.OpKind
		for i, rec := range recs {
			if rec.Width != width {
				t.Errorf("width %d: record %d stamped with width %d", width, i, rec.Width)
			}
			switch {
			case rec.Op != nil:
				if k := rec.Op.Kind; k != wire.OpCollect && k != wire.OpRefresh {
					t.Errorf("width %d: record %d: mutator %v journaled as an Op record", width, i, k)
				}
			case rec.Batch != nil:
				var kinds []wire.OpKind
				for _, bop := range rec.Batch.Ops {
					check(bop.Op)
					kinds = append(kinds, bop.Op.Kind)
				}
				commits = append(commits, kinds)
			}
		}
		want := [][]wire.OpKind{
			{wire.OpNewLocal}, {wire.OpNewCluster}, {wire.OpNewLocalIn}, {wire.OpNewRemote},
			{wire.OpSendRef}, {wire.OpDropRefs}, {wire.OpNewLocal, wire.OpNewRemote},
		}
		if !reflect.DeepEqual(commits, want) {
			t.Errorf("width %d: journaled commits %v, want %v", width, commits, want)
		}
	}
}
