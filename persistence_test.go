package causalgc_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"causalgc"
	"causalgc/transport"
	"causalgc/transport/tcp"
)

// TestErrNodeClosed: after Close, mutator and collect operations fail
// with the sentinel instead of racing freed state.
func TestErrNodeClosed(t *testing.T) {
	n := causalgc.NewNode(1)
	root := n.Root()
	a, err := n.NewLocal(root.Obj)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	if _, err := n.NewLocal(root.Obj); !errors.Is(err, causalgc.ErrNodeClosed) {
		t.Errorf("NewLocal after Close: want ErrNodeClosed, got %v", err)
	}
	if _, err := n.NewRemote(root.Obj, 2); !errors.Is(err, causalgc.ErrNodeClosed) {
		t.Errorf("NewRemote after Close: want ErrNodeClosed, got %v", err)
	}
	if _, err := n.NewClusterID(); !errors.Is(err, causalgc.ErrNodeClosed) {
		t.Errorf("NewClusterID after Close: want ErrNodeClosed, got %v", err)
	}
	if err := n.SendRef(root.Obj, root, a); !errors.Is(err, causalgc.ErrNodeClosed) {
		t.Errorf("SendRef after Close: want ErrNodeClosed, got %v", err)
	}
	if err := n.AddRef(root.Obj, a); !errors.Is(err, causalgc.ErrNodeClosed) {
		t.Errorf("AddRef after Close: want ErrNodeClosed, got %v", err)
	}
	if err := n.DropRefs(root.Obj, a); !errors.Is(err, causalgc.ErrNodeClosed) {
		t.Errorf("DropRefs after Close: want ErrNodeClosed, got %v", err)
	}
	if err := n.ClearSlot(root.Obj, 0); !errors.Is(err, causalgc.ErrNodeClosed) {
		t.Errorf("ClearSlot after Close: want ErrNodeClosed, got %v", err)
	}
	if _, err := n.Collect(); !errors.Is(err, causalgc.ErrNodeClosed) {
		t.Errorf("Collect after Close: want ErrNodeClosed, got %v", err)
	}
	if err := n.Refresh(); !errors.Is(err, causalgc.ErrNodeClosed) {
		t.Errorf("Refresh after Close: want ErrNodeClosed, got %v", err)
	}
	if err := n.Checkpoint(); !errors.Is(err, causalgc.ErrNodeClosed) {
		t.Errorf("Checkpoint after Close: want ErrNodeClosed, got %v", err)
	}
	// Introspection keeps answering from the frozen state.
	if n.NumObjects() != 2 {
		t.Errorf("NumObjects after Close = %d, want 2", n.NumObjects())
	}
	if !n.HasObject(a.Obj) {
		t.Error("HasObject after Close lost the object")
	}
}

// TestClosedNodeFrozenOnSharedTransport: after Close, frames still
// arriving over a shared transport are dropped instead of mutating the
// node — the "frozen state" contract holds for volatile nodes too.
func TestClosedNodeFrozenOnSharedTransport(t *testing.T) {
	c := causalgc.NewCluster(2, causalgc.WithTransport(transport.NewDeterministic(transport.Faults{Seed: 9})))
	defer c.Close()
	n1, n2 := c.Node(1), c.Node(2)
	if err := n1.Close(); err != nil {
		t.Fatal(err)
	}
	before := n1.NumObjects()
	if _, err := n2.NewRemote(n2.Root().Obj, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n1.NumObjects(); got != before {
		t.Fatalf("closed node mutated by shared-transport delivery: %d -> %d objects", before, got)
	}
}

// TestErrNodeClosedConcurrent hammers Close against in-flight mutator
// operations; run with -race to prove the gate serialises them.
func TestErrNodeClosedConcurrent(t *testing.T) {
	n := causalgc.NewNode(1)
	root := n.Root().Obj
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			if _, err := n.NewLocal(root); err != nil {
				if !errors.Is(err, causalgc.ErrNodeClosed) {
					t.Errorf("unexpected error: %v", err)
				}
				return
			}
		}
	}()
	time.Sleep(time.Millisecond)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestRecoverRequiresPersistence: Recover without WithPersistence is an
// error, not a silent volatile node.
func TestRecoverRequiresPersistence(t *testing.T) {
	if _, err := causalgc.Recover(1); err == nil {
		t.Fatal("Recover without WithPersistence succeeded")
	}
}

// TestNodeRecoverFresh: Recover on an empty directory is the persistent
// constructor.
func TestNodeRecoverFresh(t *testing.T) {
	dir := t.TempDir()
	n, err := causalgc.Recover(1, causalgc.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.NewLocal(n.Root().Obj); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := causalgc.Recover(1, causalgc.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.NumObjects(); got != 2 {
		t.Fatalf("recovered %d objects, want 2", got)
	}
}

// TestNodeCheckpointTruncates: an explicit checkpoint snapshots and
// truncates, and recovery replays nothing.
func TestNodeCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	n, err := causalgc.Recover(1, causalgc.WithPersistence(dir), causalgc.WithSnapshotEvery(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := n.NewLocal(n.Root().Obj); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	n.Close()

	r, err := causalgc.Recover(1, causalgc.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.NumObjects(); got != 11 {
		t.Fatalf("recovered %d objects, want 11", got)
	}
}

// TestDurableClusterQuickstart runs the quickstart over a persistent
// cluster: every node journals, the cluster is closed mid-protocol
// (crash-equivalent: no final snapshot) and reopened over the same
// directories, and GGD still reclaims the distributed cycle.
func TestDurableClusterQuickstart(t *testing.T) {
	dir := t.TempDir()
	mk := func() *causalgc.Cluster {
		return causalgc.NewCluster(3,
			causalgc.WithPersistence(dir),
			causalgc.WithTransport(transport.NewDeterministic(transport.Faults{Seed: 5})),
		)
	}
	c := mk()
	n1 := c.Node(1)
	a, err := n1.NewRemote(n1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	b, err := c.Node(2).NewRemote(a.Obj, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.Node(2).SendRef(a.Obj, b, a); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n1.DropRefs(n1.Root().Obj, a); err != nil {
		t.Fatal(err)
	}
	// Kill the whole cluster before detection runs (messages in the old
	// transport's queues are lost — tolerated).
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	r := mk()
	defer r.Close()
	if err := r.Settle(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4 && r.TotalObjects() > 3; i++ {
		if err := r.RefreshAll(); err != nil {
			t.Fatal(err)
		}
		if err := r.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	rep := r.Check()
	if !rep.Clean() {
		t.Fatalf("recovered cluster not clean: %v", rep)
	}
	if r.TotalObjects() != 3 {
		t.Fatalf("cycle not reclaimed after recovery: %d objects", r.TotalObjects())
	}
}

// TestNodeRecoverOverTCP is the in-process version of the acceptance
// scenario: three sites over real sockets, the site holding the cycle's
// head is killed (its process state discarded, its journal files closed
// with no final snapshot) after a third-party transfer and before cycle
// collection, then recovered on a fresh transport bound to the same
// address — and the cluster still reclaims the distributed cycle.
func TestNodeRecoverOverTCP(t *testing.T) {
	dir := t.TempDir()

	// Process A hosts sites 1 and 3; process B hosts site 2 (durable).
	netA, err := tcp.New(tcp.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer netA.Close()
	netB, err := tcp.New(tcp.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addrA, addrB := netA.Addr().String(), netB.Addr().String()
	netA.SetPeer(2, addrB)
	netB.SetPeer(1, addrA)
	netB.SetPeer(3, addrA)

	n1 := causalgc.NewNode(1, causalgc.WithTransport(netA))
	n3 := causalgc.NewNode(3, causalgc.WithTransport(netA))
	n2, err := causalgc.Recover(2,
		causalgc.WithTransport(netB),
		causalgc.WithPersistence(dir),
		causalgc.WithSnapshotEvery(4),
	)
	if err != nil {
		t.Fatal(err)
	}

	// Build the cycle: a on site 2, b on site 3, c on site 1; c→b is a
	// genuine third-party transfer (site 2 introduces site 1's c to
	// site 3's b), b→a closes the cycle.
	a, err := n1.NewRemote(n1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return n2.NumObjects() == 2 })
	b, err := n2.NewRemote(a.Obj, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := n2.NewRemote(a.Obj, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n2.SendRef(a.Obj, c, b); err != nil {
		t.Fatal(err)
	}
	if err := n2.SendRef(a.Obj, b, a); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return n1.NumObjects() == 2 && n3.NumObjects() == 2
	})

	// Kill process B: transport down, journal closed mid-protocol.
	if err := netB.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n2.Close(); err != nil {
		t.Fatal(err)
	}

	// The mutator meanwhile drops the only root reference: {a,b,c} is
	// now a distributed garbage cycle whose head lives on the dead site.
	if err := n1.DropRefs(n1.Root().Obj, a); err != nil {
		t.Fatal(err)
	}

	// Restart B from its persistence dir on the same address.
	netB2, err := tcp.New(tcp.Config{Listen: addrB})
	if err != nil {
		t.Fatal(err)
	}
	defer netB2.Close()
	netB2.SetPeer(1, addrA)
	netB2.SetPeer(3, addrA)
	r2, err := causalgc.Recover(2,
		causalgc.WithTransport(netB2),
		causalgc.WithPersistence(dir),
		causalgc.WithSnapshotEvery(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	// Recovery restored a — though the cycle detection its own refresh
	// starts may already have removed it. Only a born process gets a
	// tombstone, and volatile site 1 never re-sends a's creation, so
	// either way only recovery can have given a its process.
	if !r2.HasObject(a.Obj) && !r2.ClusterRemoved(a.Cluster) {
		t.Fatalf("recovered site 2 has neither a nor its tombstone (%d objects)", r2.NumObjects())
	}

	// Drive all three sites until the cycle is gone everywhere.
	deadline := time.Now().Add(20 * time.Second)
	nodes := []*causalgc.Node{n1, r2, n3}
	for time.Now().Before(deadline) {
		done := true
		for _, n := range nodes {
			if n.NumObjects() != 1 {
				done = false
			}
		}
		if done {
			break
		}
		for _, n := range nodes {
			if _, err := n.Collect(); err != nil {
				t.Fatal(err)
			}
			if err := n.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, n := range nodes {
		if got := n.NumObjects(); got != 1 {
			t.Fatalf("site %v: %d objects remain after recovery (cycle not reclaimed)", n.ID(), got)
		}
	}
	if rep := causalgc.Check(nodes...); !rep.Clean() {
		t.Fatalf("oracle not clean after recovery: %v", rep)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal(fmt.Errorf("condition not reached within %v", timeout))
}

// TestRecoverRestartsCounters: the counters are per session, as the
// monitor documents — a snapshot carries no counter, so a node
// recovered from a checkpoint taken after traffic starts from zero.
func TestRecoverRestartsCounters(t *testing.T) {
	dir := t.TempDir()
	c := causalgc.NewCluster(2, causalgc.WithPersistence(dir))
	n1 := c.Node(1)
	root := n1.Root().Obj
	for i := 0; i < 8; i++ {
		ref, err := n1.NewRemote(root, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := n1.DropRefs(root, ref); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n1.Stats().DestroysSent; got == 0 {
		t.Fatal("the traffic sent no destroy")
	}
	if got := n1.FrameStats().AcksReceived; got == 0 {
		t.Fatal("the traffic drew no acknowledgement")
	}
	if err := n1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := causalgc.Recover(1, causalgc.WithPersistence(filepath.Join(dir, "site-1")))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Stats().DestroysSent; got != 0 {
		t.Errorf("DestroysSent = %d right after Recover, want 0", got)
	}
	if got := r.FrameStats().AcksReceived; got != 0 {
		t.Errorf("AcksReceived = %d right after Recover, want 0", got)
	}
}
