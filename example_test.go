package causalgc_test

import (
	"fmt"
	"strings"

	"causalgc"
	"causalgc/transport"
)

// The worked examples. Each runs on the deterministic transport at a
// fixed seed, so every count and log line it prints is exact, and go
// test compares them with its Output block:
//
//	go test -v -run Example .

// must stops an example on an error the deterministic run never
// returns.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// ExampleCluster is the quickstart: three sites share objects, a
// distributed cycle becomes garbage, and Global Garbage Detection
// collects it — no stop-the-world, no global consensus.
func ExampleCluster() {
	c := causalgc.NewCluster(3, causalgc.WithTransport(
		transport.NewDeterministic(transport.Faults{Seed: 42})))
	defer c.Close()
	n1 := c.Node(1)

	// Site 1's root creates an object on site 2, which creates one on
	// site 3, which is handed a reference back to the site-2 object: a
	// cycle spanning two sites, reachable only from site 1.
	a, err := n1.NewRemote(n1.Root().Obj, 2)
	must(err)
	must(c.Run())
	b, err := c.Node(2).NewRemote(a.Obj, 3)
	must(err)
	must(c.Run())
	must(c.Node(2).SendRef(a.Obj, b, a)) // b → a: the cycle closes
	must(c.Run())
	fmt.Printf("before drop: %d objects, oracle: %v\n", c.TotalObjects(), c.Check())

	// Drop the only root reference: {a, b} become a distributed garbage
	// cycle no per-site collector can see.
	must(n1.DropRefs(n1.Root().Obj, a))
	must(c.Settle())
	rep := c.Check()
	fmt.Printf("after drop:  %d objects, oracle: %v\n", c.TotalObjects(), rep)
	fmt.Printf("cycle collected: %v (a removed=%v, b removed=%v)\n",
		rep.Clean(), c.Node(2).ClusterRemoved(a.Cluster), c.Node(3).ClusterRemoved(b.Cluster))
	fmt.Printf("\nGGD traffic:\n%s", c.Transport().Stats())
	// Output:
	// before drop: 5 objects, oracle: live=5 garbage=0 dangling=0
	// after drop:  3 objects, oracle: live=3 garbage=0 dangling=0
	// cycle collected: true (a removed=true, b removed=true)
	//
	// GGD traffic:
	// ggd.assert   sent=1      delivered=1      dropped=0    dup=0    bytes=64
	// ggd.destroy  sent=3      delivered=3      dropped=0    dup=0    bytes=219
	// ggd.frameack sent=4      delivered=4      dropped=0    dup=0    bytes=100
	// ggd.prop     sent=1      delivered=1      dropped=0    dup=0    bytes=128
	// mut.create   sent=2      delivered=2      dropped=0    dup=0    bytes=112
	// mut.ref      sent=1      delivered=1      dropped=0    dup=0    bytes=80
}

// Example_paperexample reproduces the paper's worked example end to
// end:
//
//   - Fig 3: the evolution of the global root graph (root 1 creates 2;
//     2 creates 3 and 4; third-party transfers build edges 4→3, 3→4,
//     4→2; the root edge 1→2 is destroyed).
//   - Fig 4/5: the log-keeping events, and each global root's log after
//     the mutator phase.
//   - Fig 7: lazy log-keeping — the transfers send no control messages
//     (only the deferred edge-asserts this reproduction adds; see
//     DESIGN.md).
//   - Fig 8: each global root's final log as GGD removes it, ending with
//     the whole cycle {2,3,4} detected and reclaimed.
func Example_paperexample() {
	// RemoveObserver hands out each global root's log just before its
	// removal: the bottom rows of Fig 8.
	var order []causalgc.ClusterID
	names := map[causalgc.ClusterID]string{}
	printLog := func(l *causalgc.Log) {
		for _, line := range strings.Split(l.Render(order), "\n") {
			fmt.Printf("    %s\n", line)
		}
	}
	engine := causalgc.EngineOptions{
		RemoveObserver: func(id causalgc.ClusterID, l *causalgc.Log, clock uint64) {
			fmt.Printf("  GGD removes %s (clock %d); final log:\n", names[id], clock)
			printLog(l)
		},
	}
	c := causalgc.NewCluster(4,
		causalgc.WithTransport(transport.NewDeterministic(transport.Faults{Seed: 1})),
		causalgc.WithEngineOptions(engine))
	defer c.Close()
	n1, n2 := c.Node(1), c.Node(2)
	step := func(label string, f func() (causalgc.Ref, error)) causalgc.Ref {
		ref, err := f()
		must(err)
		must(c.Run())
		fmt.Printf("%s → %v\n", label, ref)
		return ref
	}

	fmt.Println("== Fig 3: building the global root graph ==")
	obj2 := step("e2,1: root 1 creates 2", func() (causalgc.Ref, error) {
		return n1.NewRemote(n1.Root().Obj, 2)
	})
	obj3 := step("e3,1: 2 creates 3", func() (causalgc.Ref, error) {
		return n2.NewRemote(obj2.Obj, 3)
	})
	obj4 := step("e4,1: 2 creates 4", func() (causalgc.Ref, error) {
		return n2.NewRemote(obj2.Obj, 4)
	})
	must(n2.SendRef(obj2.Obj, obj4, obj3))
	fmt.Println("e3,2: 2 sends 4 a reference to 3   (edge 4→3)")
	must(n2.SendRef(obj2.Obj, obj3, obj4))
	fmt.Println("e4,2: 2 sends 3 a reference to 4   (edge 3→4)")
	must(n2.SendRef(obj2.Obj, obj4, obj2))
	fmt.Println("e2,2: 2 sends its own reference to 4 (edge 4→2)")
	must(c.Run())

	order = []causalgc.ClusterID{n1.Root().Cluster, obj2.Cluster, obj3.Cluster, obj4.Cluster}
	names[n1.Root().Cluster] = "1(root)"
	names[obj2.Cluster] = "2"
	names[obj3.Cluster] = "3"
	names[obj4.Cluster] = "4"

	fmt.Println("\n== Fig 5: logs after the mutator phase (columns 1,2,3,4) ==")
	for _, ref := range []causalgc.Ref{obj2, obj3, obj4} {
		fmt.Printf("  log of %s:\n", names[ref.Cluster])
		printLog(c.Node(ref.Obj.Site).LogSnapshot(ref.Cluster))
	}

	fmt.Println("\n== Fig 7: lazy log-keeping traffic so far ==")
	st := c.Transport().Stats()
	fmt.Printf("  mutator messages: create=%d ref=%d\n", st.Sent("mut.create"), st.Sent("mut.ref"))
	fmt.Printf("  GGD rounds:       destroy=%d propagate=%d (deferred asserts: %d)\n",
		st.Sent("ggd.destroy"), st.Sent("ggd.prop"), st.Sent("ggd.assert"))

	fmt.Println("\n== Fig 8: e2,3 — the root destroys edge 1→2; GGD runs ==")
	must(n1.DropRefs(n1.Root().Obj, obj2))
	must(c.Settle())

	fmt.Printf("\nafter GGD: oracle %v\n", c.Check())
	fmt.Printf("cluster 2 removed: %v\n", c.Node(2).ClusterRemoved(obj2.Cluster))
	fmt.Printf("cluster 3 removed: %v\n", c.Node(3).ClusterRemoved(obj3.Cluster))
	fmt.Printf("cluster 4 removed: %v\n", c.Node(4).ClusterRemoved(obj4.Cluster))
	fmt.Printf("\ntotal traffic:\n%s", st)
	// Output:
	// == Fig 3: building the global root graph ==
	// e2,1: root 1 creates 2 → s2/o4294967297@s2/c4294967297
	// e3,1: 2 creates 3 → s3/o8589934593@s3/c8589934593
	// e4,1: 2 creates 4 → s4/o8589934594@s4/c8589934594
	// e3,2: 2 sends 4 a reference to 3   (edge 4→3)
	// e4,2: 2 sends 3 a reference to 4   (edge 3→4)
	// e2,2: 2 sends its own reference to 4 (edge 4→2)
	//
	// == Fig 5: logs after the mutator phase (columns 1,2,3,4) ==
	//   log of 2:
	//     DV[s2/c4294967297]! = (1,0,0,2)
	//     ob[s3/c8589934593]  = (0,1,0,0) fwd (0,0,0,3)
	//     ob[s4/c8589934594]  = (0,2,0,0) fwd (0,0,4,0)
	//   log of 3:
	//     DV[s3/c8589934593]! = (0,1,0,1)
	//     ob[s4/c8589934594]  = (0,0,1,0)
	//   log of 4:
	//     DV[s4/c8589934594]! = (0,2,1,0)
	//     ob[s2/c4294967297]  = (0,0,0,2)
	//     ob[s3/c8589934593]  = (0,0,0,1)
	//
	// == Fig 7: lazy log-keeping traffic so far ==
	//   mutator messages: create=3 ref=3
	//   GGD rounds:       destroy=0 propagate=0 (deferred asserts: 3)
	//
	// == Fig 8: e2,3 — the root destroys edge 1→2; GGD runs ==
	//   GGD removes 3 (clock 1); final log:
	//     DV[s3/c8589934593]! = (0,1,0,2)
	//     DV[s2/c4294967297]* = (Ē2,0,0,2)
	//     DV[s4/c8589934594]* = (0,6,1,0)
	//     ob[s4/c8589934594]  = (0,0,1,0)
	//   GGD removes 4 (clock 3); final log:
	//     DV[s4/c8589934594]! = (0,6,Ē2,0)
	//     DV[s2/c4294967297]* = (Ē2,0,0,2)
	//     ob[s2/c4294967297]  = (0,0,0,2)
	//     DV[s3/c8589934593]  = (0,1,0,0) hintcols s4/c8589934594
	//     ob[s3/c8589934593]  = (0,0,0,1)
	//   GGD removes 2 (clock 7); final log:
	//     DV[s2/c4294967297]! = (Ē2,0,0,Ē4)
	//     DV[s3/c8589934593]  = (0,0,0,1)
	//     ob[s3/c8589934593]  = (0,1,0,0) fwd (0,0,0,3)
	//     DV[s4/c8589934594]* = (0,6,1,0)
	//     ob[s4/c8589934594]  = (0,2,0,0) fwd (0,0,4,0)
	//
	// after GGD: oracle live=4 garbage=0 dangling=0
	// cluster 2 removed: true
	// cluster 3 removed: true
	// cluster 4 removed: true
	//
	// total traffic:
	// ggd.assert   sent=3      delivered=3      dropped=0    dup=0    bytes=192
	// ggd.destroy  sent=6      delivered=6      dropped=0    dup=0    bytes=510
	// ggd.frameack sent=9      delivered=9      dropped=0    dup=0    bytes=225
	// ggd.prop     sent=6      delivered=6      dropped=0    dup=0    bytes=1136
	// mut.create   sent=3      delivered=3      dropped=0    dup=0    bytes=168
	// mut.ref      sent=3      delivered=3      dropped=0    dup=0    bytes=240
}

// ExampleBuildDLL reproduces the causal side of the paper's §4
// comparison: messages to collect a detached doubly-linked list of k
// elements under the sound removal guard, which pays O(k²) for
// all-pairs knowledge inside the subcycles, and more messages than
// Schelvis's eager timestamp packets at every k E6 measures. The public
// API builds sound engines only; the paper's literal guard (the O(k)
// claim) and the three-way comparison including Schelvis are E6, a test
// in internal/sim.
func ExampleBuildDLL() {
	causal := func(k int) int {
		c := causalgc.NewCluster(k+1,
			causalgc.WithTransport(transport.NewDeterministic(transport.Faults{Seed: 1})))
		defer c.Close()
		dll, err := causalgc.BuildDLL(c, k)
		must(err)
		base := c.Transport().Stats().TotalSent()
		must(dll.Detach())
		must(c.Settle())
		if rep := c.Check(); !rep.Clean() {
			panic(fmt.Sprintf("k=%d not clean: %v", k, rep))
		}
		return c.Transport().Stats().TotalSent() - base
	}
	fmt.Println("§4: messages to collect a detached k-element doubly-linked list")
	fmt.Printf("%6s %14s\n", "k", "causal(sound)")
	for _, k := range []int{4, 8, 16, 32, 64} {
		fmt.Printf("%6d %14d\n", k, causal(k))
	}
	fmt.Println("\nthe sound guard pays O(k²) for all-pairs knowledge inside the")
	fmt.Println("subcycles. The paper's literal guard reproduces its O(k) claim, and")
	fmt.Println("Schelvis is O(k²) with fewer messages at every k: run")
	fmt.Println("`go test -v -run ExperimentCountsPinned/E6 ./internal/sim` for the")
	fmt.Println("three-way table (see DESIGN.md §4, E6).")
	// Output:
	// §4: messages to collect a detached k-element doubly-linked list
	//      k  causal(sound)
	//      4             42
	//      8            224
	//     16           1019
	//     32           4423
	//     64          17853
	//
	// the sound guard pays O(k²) for all-pairs knowledge inside the
	// subcycles. The paper's literal guard reproduces its O(k) claim, and
	// Schelvis is O(k²) with fewer messages at every k: run
	// `go test -v -run ExperimentCountsPinned/E6 ./internal/sim` for the
	// three-way table (see DESIGN.md §4, E6).
}

// ExampleChurn runs a randomised workload across eight sites with
// injected message loss, checks the safety invariant against the global
// oracle, and shows residual garbage recovered by refresh rounds (§5).
func ExampleChurn() {
	det := transport.NewDeterministic(transport.Faults{Seed: 7, DropProb: 0.2, Reorder: true})
	c := causalgc.NewCluster(8, causalgc.WithTransport(det))
	defer c.Close()
	stats, err := causalgc.Churn(c, causalgc.ChurnConfig{Seed: 99, Ops: 1000, StepsBetweenOps: 3})
	must(err)
	must(c.Settle())
	rep := c.Check()
	fmt.Printf("workload: %+v\n", stats)
	fmt.Printf("after lossy run:  %v  (safety holds: %v)\n", rep, rep.Safe())

	// Heal the network and run recovery refresh rounds.
	det.SetDropProb(0)
	for i := 0; i < 4; i++ {
		must(c.RefreshAll())
		must(c.Settle())
	}
	rep = c.Check()
	fmt.Printf("after recovery:   %v  (safety holds: %v)\n", rep, rep.Safe())
	fmt.Printf("\ntraffic:\n%s", det.Stats())
	// Output:
	// workload: {Creates:360 Shares:368 Drops:264 Skipped:8}
	// after lossy run:  live=252 garbage=23 dangling=0  (safety holds: true)
	// after recovery:   live=252 garbage=0 dangling=0  (safety holds: true)
	//
	// traffic:
	// ggd.assert   sent=345    delivered=298    dropped=47   dup=0    bytes=22080
	// ggd.destroy  sent=349    delivered=302    dropped=47   dup=0    bytes=32789
	// ggd.frameack sent=600    delivered=529    dropped=71   dup=0    bytes=15000
	// ggd.prop     sent=1288   delivered=1288   dropped=0    dup=0    bytes=4713472
	// mut.create   sent=321    delivered=321    dropped=0    dup=0    bytes=17976
	// mut.ref      sent=336    delivered=336    dropped=0    dup=0    bytes=26880
}
