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
		d := mustRef(t)(s.Apply(wire.OpRecord{Kind: wire.OpNewLocalIn, Holder: root, Clu: cl}))
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
	_ = mustRef(t)(s.Apply(wire.OpRecord{Kind: wire.OpNewLocalIn, Holder: root, Clu: cl}))
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

// TestShardedDeliveryAcksOnce: the receive watermarks are site-wide, and
// so is the set of streams owed an acknowledgement. A delivery that
// reaches several shards — an envelope split over them — draws one
// FrameAck per stream, not one per shard it reached.
func TestShardedDeliveryAcksOnce(t *testing.T) {
	// acksFrom delivers p from site 2 to a fresh site of the given width
	// and returns the FrameAcks site 2 gets back, by stream.
	acksFrom := func(width int, build func(s *Site) netsim.Payload) map[core.Stream][]uint64 {
		net := netsim.NewSim(netsim.Faults{Seed: 1})
		s := NewSharded(1, net, DefaultOptions(), width)
		acks := make(map[core.Stream][]uint64)
		var collect func(netsim.Payload)
		collect = func(p netsim.Payload) {
			switch m := p.(type) {
			case wire.FrameAck:
				acks[m.Stream] = append(acks[m.Stream], m.Seq)
			case wire.Envelope:
				for _, f := range m.Frames {
					collect(f)
				}
			}
		}
		net.Register(2, func(_ ids.SiteID, p netsim.Payload) { collect(p) })
		net.Send(2, 1, build(s))
		if _, err := net.Run(0); err != nil {
			t.Fatal(err)
		}
		return acks
	}

	// One envelope: a Create for each of two shards on the mutator
	// stream, and an edge-assert to the first on the assert stream.
	got := acksFrom(2, func(s *Site) netsim.Payload {
		var frames []netsim.Payload
		for seq, want := uint64(1), 0; want < 2; seq++ {
			cl := ids.ClusterID{Site: 1, Seq: seq}
			if s.clusterShardIdx(cl) != want {
				continue
			}
			frames = append(frames, wire.Create{
				Creator: ids.ClusterID{Site: 2, Seq: 1}, Stamp: 1,
				Obj: ids.ObjectID{Site: 1, Seq: seq}, Cluster: cl, Seq: uint64(want + 1),
			})
			want++
		}
		assert := wire.Assert{From: ids.ClusterID{Site: 2, Seq: 1}, To: frames[0].(wire.Create).Cluster, M: core.AssertMsg{Stamp: 1}, Seq: 1}
		return wire.Envelope{Frames: append(frames, assert)}
	})
	want := map[core.Stream][]uint64{core.StreamMut: {2}, core.StreamAssert: {1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("envelope over 2 shards drew acks %v, want one per stream %v", got, want)
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

// TestUntrackedStreamOpensNothing: stream zero is core's untracked
// stream, which the codec lets through. A FrameAck naming it covers
// nothing, so it must open no send or receive stream — state the site
// would otherwise ack back and write into every later snapshot.
func TestUntrackedStreamOpensNothing(t *testing.T) {
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	s := NewSharded(1, net, DefaultOptions(), 2)
	s.handleNet(2, wire.FrameAck{Seq: 5, Epoch: 1})
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(s.st.send) != 0 || len(s.st.recv) != 0 {
		t.Fatalf("untracked stream opened state: send %v, recv %v", s.st.send, s.st.recv)
	}
}

// TestCheckpointAllSkipsWhenNotDue: the checkpoint is the tail of the
// event that made it due, so an event that leaves the journal below
// SnapshotEvery takes no snapshot, and the public Checkpoint still
// snapshots on demand.
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
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := p.Store().Stats().Snapshots; got != base+1 {
		t.Fatalf("forced checkpoint skipped: snapshots %d, want %d", got, base+1)
	}
	if _, err := s.Apply(wire.OpRecord{Kind: wire.OpAddRef, Holder: root, Target: s.Root()}); err != nil { // one append, below the threshold
		t.Fatal(err)
	}
	if got := p.Store().Stats().Snapshots; got != base+1 {
		t.Fatalf("an event that left the journal below SnapshotEvery snapshotted: %d, want %d", got, base+1)
	}
}

// liveNet is a network that starts peer traffic toward a site the
// moment the site registers: frames that race the recovery replay the
// site runs right after registering. They go through the inner
// network, so its per-site mailbox goroutine delivers them.
type liveNet struct {
	netsim.Network
	frames []netsim.Payload
	done   chan struct{}
}

func (n *liveNet) Register(id ids.SiteID, h netsim.Handler) {
	n.Network.Register(id, h)
	go func() {
		defer close(n.done)
		for _, p := range n.frames {
			n.Send(2, id, p)
		}
	}()
}

// objectSet lists the IDs of every object on the site, failing the test
// if any object lives on two shards.
func objectSet(t *testing.T, s *Site) []ids.ObjectID {
	t.Helper()
	_, objs := s.Snapshot()
	out := make([]ids.ObjectID, len(objs))
	for i, o := range objs {
		if i > 0 && o.ID == objs[i-1].ID {
			t.Fatalf("object %v exists twice", o.ID)
		}
		out[i] = o.ID
	}
	return out
}

// recvWatermark reads the site's receive watermark for (peer, stream).
func recvWatermark(s *Site, peer ids.SiteID, stream core.Stream) uint64 {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	if t := s.st.recv[streamKey{peer: peer, kind: stream}]; t != nil {
		return t.watermark
	}
	return 0
}

// TestRecoverWithLiveTraffic recovers a durable width-2 site from a
// snapshot-free WAL of thousands of records while peer 2 delivers K
// tracked creations, each twice, and one FrameAck, starting the moment
// the site registers: live traffic racing the replay. Each creation
// applies exactly once, the mutator watermark from the peer reaches K,
// and a second crash recovers the same object set — the live
// deliveries were journaled after the replayed records, not lost or
// interleaved with them.
func TestRecoverWithLiveTraffic(t *testing.T) {
	const K = 64
	dir := t.TempDir()
	net := netsim.NewAsync(netsim.Faults{Seed: 1})
	p, err := OpenPersist(dir, nosyncPersist)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RecoverSharded(1, net, DefaultOptions(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	root := s.Root().Obj
	a := mustRef(t)(s.NewLocal(root)) // rr → shard 0
	b := mustRef(t)(s.NewLocal(root)) // rr → shard 1
	// Cheap records on both shards: a slot added and cleared on the
	// root, and a self-reference inside b's cluster.
	for i := 0; i < 700; i++ {
		if _, err := s.Apply(wire.OpRecord{Kind: wire.OpAddRef, Holder: root, Target: a}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Apply(wire.OpRecord{Kind: wire.OpClearSlot, Holder: root, Slot: 2 + i}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Apply(wire.OpRecord{Kind: wire.OpAddRef, Holder: b.Obj, Target: b}); err != nil {
			t.Fatal(err)
		}
	}
	_ = mustRef(t)(s.NewRemote(root, 2)) // a mutator row for the live FrameAck to retire
	net.Quiesce()
	if err := p.Close(); err != nil { // crash
		t.Fatal(err)
	}
	net.Close()

	var frames []netsim.Payload
	creator := ids.ClusterID{Site: 2, Seq: 1, Root: true}
	for n := uint64(1); n <= K; n++ {
		ref := mintedBy(2, n)
		c := wire.Create{Creator: creator, Stamp: n, Obj: ref.Obj, Cluster: ref.Cluster, Seq: n}
		frames = append(frames, c, c)
	}
	frames = append(frames, wire.FrameAck{Stream: core.StreamMut, Seq: 1, Epoch: 1})
	inner := netsim.NewAsync(netsim.Faults{Seed: 2})
	defer inner.Close()
	live := &liveNet{Network: inner, frames: frames, done: make(chan struct{})}
	p2, err := OpenPersist(dir, nosyncPersist)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(p2.Store().WAL()); n < 2000 {
		t.Fatalf("WAL holds %d records, want a replay of at least 2000", n)
	}
	s2, err := RecoverSharded(1, live, DefaultOptions(), p2, 2)
	if err != nil {
		t.Fatal(err)
	}
	<-live.done
	inner.Quiesce()

	for n := uint64(1); n <= K; n++ {
		obj := mintedBy(2, n).Obj
		if shardHas(s2, 0, obj) == shardHas(s2, 1, obj) {
			t.Fatalf("creation %d: object on %v/%v shards, want exactly one", n, shardHas(s2, 0, obj), shardHas(s2, 1, obj))
		}
	}
	if got := recvWatermark(s2, 2, core.StreamMut); got != K {
		t.Fatalf("mutator watermark from peer 2 is %d, want %d", got, K)
	}
	if fs := s2.FrameStats(); fs.OutboxRetained != 0 {
		t.Fatalf("%d outbox rows retained after the live FrameAck", fs.OutboxRetained)
	}
	want := objectSet(t, s2)
	if err := p2.Close(); err != nil { // second crash
		t.Fatal(err)
	}

	net3 := netsim.NewSim(netsim.Faults{Seed: 3})
	p3, err := OpenPersist(dir, nosyncPersist)
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	s3, err := RecoverSharded(1, net3, DefaultOptions(), p3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := objectSet(t, s3); !reflect.DeepEqual(got, want) {
		t.Fatalf("second recovery rebuilt %d objects, want the %d the first one ended with", len(got), len(want))
	}
	if got := recvWatermark(s3, 2, core.StreamMut); got != K {
		t.Fatalf("second recovery: mutator watermark %d, want %d", got, K)
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
		r.ledger(core.StreamMut).Each(func(to ids.SiteID, p netsim.Payload, seq uint64) {
			if to != peer {
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
			_ = mustRef(t)(s.NewLocal(s.Root().Obj)) // WAL record 2, after recovery's Refresh marker from each shard
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
			if err == nil || !strings.Contains(err.Error(), "wal record 3") {
				t.Fatalf("recovery of a foreign shard tag: %v, want a refusal naming wal record 3", err)
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
	y := mustRef(t)(s.Apply(wire.OpRecord{Kind: wire.OpNewLocalIn, Holder: b.Obj, Clu: b.Cluster}))
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

// TestJournaledCommitsAreBatchRecords: every mutator commit, the
// singleton methods' groups of one included, is one Batch record, on a
// one-shard site exactly as on a striped one; Op records are cycle
// markers only; and every record is stamped with the stripe width.
func TestJournaledCommitsAreBatchRecords(t *testing.T) {
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
		_ = mustRef(t)(s.Apply(wire.OpRecord{Kind: wire.OpNewLocalIn, Holder: root, Clu: cl}))
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
