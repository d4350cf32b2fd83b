// dll reproduces the causal side of the paper's §4 comparison: messages
// to collect a detached doubly-linked list of k elements under the
// paper's literal removal guard (which reproduces the O(k) claim) and
// under the sound guard (which pays O(k²) for all-pairs knowledge inside
// the subcycles). Programs against the public causalgc API only; the
// three-way comparison including Schelvis's eager timestamp packets is
// produced by `causalgc-bench -exp E6` (package causalgc/eval).
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
	fmt.Printf("%6s %22s %14s\n", "k", "causal(paper-guard)", "causal(sound)")
	for _, k := range []int{4, 8, 16, 32, 64} {
		fmt.Printf("%6d %22d %14d\n", k, causal(k, true), causal(k, false))
	}
	fmt.Println("\npaper-guard reproduces the O(k) claim; the sound guard pays O(k²)")
	fmt.Println("for all-pairs knowledge inside the subcycles. Schelvis is O(k²)")
	fmt.Println("with a larger growth rate: run `causalgc-bench -exp E6` for the")
	fmt.Println("three-way table (see DESIGN.md §4, E6).")
}

func causal(k int, paperGuard bool) int {
	c := causalgc.NewCluster(k+1,
		causalgc.WithTransport(transport.NewDeterministic(transport.Faults{Seed: 1})),
		causalgc.WithEngineOptions(causalgc.EngineOptions{UnsafeSkipConfirmation: paperGuard}))
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
