// dll reproduces the causal side of the paper's §4 comparison: messages
// to collect a detached doubly-linked list of k elements under the
// sound removal guard, which pays O(k²) for all-pairs knowledge inside
// the subcycles, and more messages than Schelvis's eager timestamp
// packets at every k E6 measures. Programs against the public causalgc
// API only, which builds sound engines alone; the paper's literal guard
// (the O(k) claim) and the three-way comparison including Schelvis are
// E6, a test in internal/sim.
//
//	go run ./examples/dll
package main

import (
	"fmt"
	"log"

	"causalgc"
	"causalgc/transport"
)

func main() {
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
}

func causal(k int) int {
	c := causalgc.NewCluster(k+1,
		causalgc.WithTransport(transport.NewDeterministic(transport.Faults{Seed: 1})))
	dll, err := causalgc.BuildDLL(c, k)
	if err != nil {
		log.Fatal(err)
	}
	base := c.Transport().Stats().TotalSent()
	if err := dll.Detach(); err != nil {
		log.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		log.Fatal(err)
	}
	if rep := c.Check(); !rep.Clean() {
		log.Fatalf("k=%d not clean: %v", k, rep)
	}
	return c.Transport().Stats().TotalSent() - base
}
