package causalgc_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"causalgc"
	"causalgc/transport"
)

// ExampleCluster is the quickstart: three sites share objects, a
// distributed cycle becomes garbage, and GGD collects it.
func ExampleCluster() {
	c := causalgc.NewCluster(3)
	defer c.Close()
	n1 := c.Node(1)

	// Site 1's root creates an object on site 2, which creates one on
	// site 3, which is handed a reference back to the site-2 object: a
	// cycle spanning two sites, reachable only from site 1.
	a, _ := n1.NewRemote(n1.Root().Obj, 2)
	c.Run()
	b, _ := c.Node(2).NewRemote(a.Obj, 3)
	c.Run()
	c.Node(2).SendRef(a.Obj, b, a) // b → a: the cycle closes
	c.Run()
	fmt.Println("before drop:", c.TotalObjects(), "objects")

	// Drop the only root reference: {a, b} become a distributed garbage
	// cycle no per-site collector can see.
	n1.DropRefs(n1.Root().Obj, a)
	c.Settle()
	fmt.Println("after drop: ", c.TotalObjects(), "objects, clean:", c.Check().Clean())
	// Output:
	// before drop: 5 objects
	// after drop:  3 objects, clean: true
}

// TestClusterQuickstart is the example with assertions: remote create,
// third-party state, drop, cycle reclamation, oracle verdicts — on
// default (one-shard) nodes and on volatile WithShards(2) nodes, which
// NewCluster must stripe exactly as NewNode does.
func TestClusterQuickstart(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := []causalgc.Option{causalgc.WithTransport(transport.NewDeterministic(transport.Faults{Seed: 42}))}
			if shards > 1 {
				opts = append(opts, causalgc.WithShards(shards))
			}
			c := causalgc.NewCluster(3, opts...)
			defer c.Close()
			for _, n := range c.Nodes() {
				if got := n.Shards(); got != shards {
					t.Fatalf("node %v: Shards() = %d, want %d", n.ID(), got, shards)
				}
			}
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
			if rep := c.Check(); !rep.Clean() || rep.Live != 5 {
				t.Fatalf("before drop: want 5 live clean, got %v", rep)
			}

			if err := n1.DropRefs(n1.Root().Obj, a); err != nil {
				t.Fatal(err)
			}
			if err := c.Settle(); err != nil {
				t.Fatal(err)
			}
			rep := c.Check()
			if !rep.Clean() {
				t.Fatalf("after drop: not clean: %v", rep)
			}
			if !c.Node(2).ClusterRemoved(a.Cluster) || !c.Node(3).ClusterRemoved(b.Cluster) {
				t.Fatalf("cycle not removed: a=%v b=%v",
					c.Node(2).ClusterRemoved(a.Cluster), c.Node(3).ClusterRemoved(b.Cluster))
			}
			if c.Node(2).HasObject(a.Obj) || c.Node(3).HasObject(b.Obj) {
				t.Fatal("cycle objects not reclaimed")
			}
		})
	}
}

// TestSentinelErrors checks that illegal mutator operations surface the
// typed sentinels through errors.Is.
func TestSentinelErrors(t *testing.T) {
	c := causalgc.NewCluster(2)
	defer c.Close()
	n1, n2 := c.Node(1), c.Node(2)

	bogus := causalgc.ObjectID{Site: 1, Seq: 999}
	if _, err := n1.NewLocal(bogus); !errors.Is(err, causalgc.ErrNoSuchObject) {
		t.Errorf("NewLocal(bogus): want ErrNoSuchObject, got %v", err)
	}
	if _, err := n1.NewRemote(n1.Root().Obj, 1); !errors.Is(err, causalgc.ErrRemoteSelf) {
		t.Errorf("NewRemote(self): want ErrRemoteSelf, got %v", err)
	}
	if _, err := n1.NewLocalIn(n1.Root().Obj, n2.Root().Cluster); !errors.Is(err, causalgc.ErrForeignCluster) {
		t.Errorf("NewLocalIn(foreign): want ErrForeignCluster, got %v", err)
	}
	a, err := n1.NewRemote(n1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Root 2 never held a: copying it from there is illegal.
	if err := n2.SendRef(n2.Root().Obj, n1.Root(), a); !errors.Is(err, causalgc.ErrNotHolder) {
		t.Errorf("SendRef(not held): want ErrNotHolder, got %v", err)
	}
}

// countingObserver records removal and collection callbacks.
type countingObserver struct {
	mu       sync.Mutex
	removed  []causalgc.ClusterID
	collects int
}

func (o *countingObserver) ClusterRemoved(_ causalgc.SiteID, cl causalgc.ClusterID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.removed = append(o.removed, cl)
}

func (o *countingObserver) Collected(_ causalgc.SiteID, _ causalgc.CollectStats) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.collects++
}

// TestObserver checks that WithObserver reports GGD removals and local
// collections.
func TestObserver(t *testing.T) {
	obs := &countingObserver{}
	c := causalgc.NewCluster(3, causalgc.WithObserver(obs))
	defer c.Close()
	n1 := c.Node(1)

	a, err := n1.NewRemote(n1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n1.DropRefs(n1.Root().Obj, a); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	found := false
	for _, cl := range obs.removed {
		if cl == a.Cluster {
			found = true
		}
	}
	if !found {
		t.Errorf("observer missed removal of %v (saw %v)", a.Cluster, obs.removed)
	}
	if obs.collects == 0 {
		t.Error("observer saw no collections")
	}
}

// TestClusterAsyncTransport runs the quickstart over the concurrent
// in-memory transport: same engine, real goroutines.
func TestClusterAsyncTransport(t *testing.T) {
	at := transport.NewAsync(transport.Faults{})
	c := causalgc.NewCluster(3, causalgc.WithTransport(at))
	defer at.Close()
	n1 := c.Node(1)

	a, err := n1.NewRemote(n1.Root().Obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	b, err := c.Node(2).NewRemote(a.Obj, 3)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	if err := c.Node(2).SendRef(a.Obj, b, a); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if err := n1.DropRefs(n1.Root().Obj, a); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	if rep := c.Check(); !rep.Clean() {
		t.Fatalf("async cluster not clean: %v", rep)
	}
}

// TestWorkloads drives the public workload builders end to end.
func TestWorkloads(t *testing.T) {
	t.Run("paper", func(t *testing.T) {
		c := causalgc.NewCluster(4)
		defer c.Close()
		sc, err := causalgc.BuildPaperScenario(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.DropRootEdge(); err != nil {
			t.Fatal(err)
		}
		if err := c.Settle(); err != nil {
			t.Fatal(err)
		}
		if rep := c.Check(); !rep.Clean() {
			t.Fatalf("paper scenario not clean: %v", rep)
		}
	})
	t.Run("ring", func(t *testing.T) {
		c := causalgc.NewCluster(9)
		defer c.Close()
		ring, err := causalgc.BuildRing(c, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := ring.DetachRing(); err != nil {
			t.Fatal(err)
		}
		if err := c.Settle(); err != nil {
			t.Fatal(err)
		}
		if rep := c.Check(); !rep.Clean() {
			t.Fatalf("ring not clean: %v", rep)
		}
	})
	t.Run("churn", func(t *testing.T) {
		c := causalgc.NewCluster(5)
		defer c.Close()
		if _, err := causalgc.Churn(c, causalgc.ChurnConfig{Seed: 3, Ops: 200, StepsBetweenOps: 2}); err != nil {
			t.Fatal(err)
		}
		if err := c.Settle(); err != nil {
			t.Fatal(err)
		}
		if rep := c.Check(); !rep.Safe() {
			t.Fatalf("churn unsafe: %v", rep)
		}
	})
}
