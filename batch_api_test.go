package causalgc

import (
	"errors"
	"sync"
	"testing"

	"causalgc/transport"
)

// TestBatchQuickstart exercises the public Batch surface: deferred
// chaining, lifting, commit, and post-commit resolution.
func TestBatchQuickstart(t *testing.T) {
	cl := NewCluster(2)
	n1, n2 := cl.Node(1), cl.Node(2)

	b := n1.Batch()
	a := b.NewLocal(b.Root())
	bb := b.NewLocal(a)
	c := b.NewRemote(b.Root(), n2.ID())
	b.SendRef(a, c, bb)
	if b.Len() != 4 {
		t.Fatalf("Len = %d, want 4", b.Len())
	}
	if a.Ref() != NilRef {
		t.Fatal("deferred ref resolved before Commit")
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if a.Ref() == NilRef || bb.Ref() == NilRef || c.Ref() == NilRef {
		t.Fatalf("refs unresolved after Commit: %v %v %v", a.Ref(), bb.Ref(), c.Ref())
	}
	if !n1.HasObject(a.Obj()) || !n1.HasObject(bb.Obj()) {
		t.Fatal("local objects missing")
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if !n2.HasObject(c.Obj()) {
		t.Fatal("remote object missing after Run")
	}
	if err := b.Commit(); !errors.Is(err, ErrBatchCommitted) {
		t.Fatalf("second Commit: %v, want ErrBatchCommitted", err)
	}

	// A later batch lifts the committed refs and tears the graph down.
	b2 := n1.Batch()
	b2.DropRefs(b2.Root(), b2.Ref(a.Ref()))
	b2.DropRefs(b2.Root(), b2.Ref(c.Ref()))
	if err := b2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Settle(); err != nil {
		t.Fatal(err)
	}
	if rep := cl.Check(); !rep.Clean() {
		t.Fatalf("not clean after batched teardown: %v", rep)
	}
}

// TestBatchStagingErrors: staging failures reject the whole batch with
// the familiar sentinels; cross-batch refs are caught.
func TestBatchStagingErrors(t *testing.T) {
	n := NewNode(1)
	defer n.Close()

	b := n.Batch()
	b.NewLocal(b.Ref(Ref{Obj: ObjectID{Site: 1, Seq: 999}, Cluster: ClusterID{Site: 1, Seq: 999}}))
	if err := b.Commit(); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("unknown holder: %v, want ErrNoSuchObject", err)
	}
	if n.NumObjects() != 1 {
		t.Fatalf("rejected batch mutated the node: %d objects", n.NumObjects())
	}

	// A BatchRef from another batch poisons the using batch.
	b1, b2 := n.Batch(), n.Batch()
	foreign := b1.Root()
	b2.NewLocal(foreign)
	if err := b2.Commit(); !errors.Is(err, ErrBatchRef) {
		t.Fatalf("foreign BatchRef: %v, want ErrBatchRef", err)
	}
	b3 := n.Batch()
	b3.NewLocal(nil)
	if err := b3.Commit(); !errors.Is(err, ErrBatchRef) {
		t.Fatalf("nil BatchRef: %v, want ErrBatchRef", err)
	}

	// The zero target site is rejected identically on both paths: the
	// creation could never be delivered.
	if _, err := n.NewRemote(n.Root().Obj, 0); !errors.Is(err, ErrNoSite) {
		t.Fatalf("singleton NewRemote(0): %v, want ErrNoSite", err)
	}
	b4 := n.Batch()
	x := b4.NewRemote(b4.Root(), 0)
	b4.AddRef(b4.Root(), x)
	if err := b4.Commit(); !errors.Is(err, ErrNoSite) {
		t.Fatalf("batched NewRemote(0): %v, want ErrNoSite", err)
	}

	// Empty batch commits trivially; closed node gates Commit.
	if err := n.Batch().Commit(); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	nb := n.Batch()
	nb.NewLocal(nb.Root())
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nb.Commit(); !errors.Is(err, ErrNodeClosed) {
		t.Fatalf("commit after close: %v, want ErrNodeClosed", err)
	}
}

// TestBatchConcurrentCommit drives concurrent multi-op commits from
// several goroutines per node over the async transport (run under
// -race in CI), then checks the converged system against the oracle.
func TestBatchConcurrentCommit(t *testing.T) {
	tr := transport.NewAsync(transport.Faults{})
	cl := NewCluster(3, WithTransport(tr))
	defer func() {
		cl.Close()
		tr.Close()
	}()

	const workers, commits = 4, 8
	var wg sync.WaitGroup
	for _, n := range cl.Nodes() {
		for wkr := 0; wkr < workers; wkr++ {
			wg.Add(1)
			go func(n *Node, wkr int) {
				defer wg.Done()
				other := SiteID(1 + (int(n.ID())+wkr)%3)
				if other == n.ID() {
					other = SiteID(1 + int(other)%3)
				}
				for c := 0; c < commits; c++ {
					b := n.Batch()
					a := b.NewLocal(b.Root())
					bb := b.NewLocal(a)
					r := b.NewRemote(b.Root(), other)
					b.SendRef(a, r, bb)
					keep := c%2 == 0
					if !keep {
						b.DropRefs(b.Root(), a)
						b.DropRefs(b.Root(), r)
					}
					if err := b.Commit(); err != nil {
						t.Errorf("node %v worker %d commit %d: %v", n.ID(), wkr, c, err)
						return
					}
				}
			}(n, wkr)
		}
	}
	wg.Wait()
	if err := cl.Settle(); err != nil {
		t.Fatal(err)
	}
	rep := cl.Check()
	if !rep.Safe() {
		t.Fatalf("SAFETY VIOLATION under concurrent commits: %v", rep)
	}
	if len(rep.Garbage) != 0 {
		t.Fatalf("residual garbage after settle: %v", rep)
	}
	// Half the commits kept their subgraph: 3 nodes × 4 workers × 4 kept
	// commits × 3 objects, plus the 3 roots.
	want := 3 + 3*workers*(commits/2)*3
	if rep.Live != want {
		t.Fatalf("live = %d, want %d", rep.Live, want)
	}
}

// TestOptionValidation: nonsensical option values are rejected loudly
// with ErrBadOption — returned by Recover, panicking in NewNode.
func TestOptionValidation(t *testing.T) {
	if _, err := Recover(1, WithPersistence(t.TempDir()), WithSnapshotEvery(-1)); !errors.Is(err, ErrBadOption) {
		t.Fatalf("negative WithSnapshotEvery: %v, want ErrBadOption", err)
	}
	func() {
		defer func() {
			err, ok := recover().(error)
			if !ok || !errors.Is(err, ErrBadOption) {
				t.Fatalf("NewNode panic = %v, want ErrBadOption error", err)
			}
		}()
		NewNode(1, WithSnapshotEvery(-2))
	}()
	func() {
		defer func() {
			err, ok := recover().(error)
			if !ok || !errors.Is(err, ErrBadOption) {
				t.Fatalf("NewCluster panic = %v, want ErrBadOption error", err)
			}
		}()
		NewCluster(2, WithSnapshotEvery(-2))
	}()
	// Valid configurations still construct.
	n := NewNode(1, WithSnapshotEvery(8))
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}
