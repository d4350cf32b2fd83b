package causalgc_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"causalgc"
)

// Shape of one anchored commit: a batch-64 group that creates
// anchoredChains four-object chains under the committer's anchor and
// drops its anchoredChains oldest chains, bottom-up.
const (
	anchoredChains  = 8
	anchoredOps     = anchoredChains*4 + anchoredChains*4
	anchoredCollect = 16 // each committer collects every this many commits
)

// anchoredChain is one committed chain: anchor → a → b → c → d.
type anchoredChain [4]causalgc.Ref

// BenchmarkAnchoredCommitters is the stripe's standing measurement:
// one or two goroutines commit batch-64 groups, each to its own anchor
// under the root. Anchors are placed round-robin, so at width 2 two
// committers own a shard each and commit under their own locks; at
// width 1 they share one. A durable node journals and fsyncs every
// group and runs one journaled event at a time. Throughput is reported
// as ops/s; compare width 2 against width 1 at the same durability and
// committer count, and at one fixed iteration count: the heap does not
// reuse a cleared slot, so each anchor's slot array grows by 8 per
// commit and every collection's mark walks it — the cost of a commit
// rises with the number run before it.
//
//	go test -run '^$' -bench AnchoredCommitters -benchtime 2000x -count 5 .
func BenchmarkAnchoredCommitters(b *testing.B) {
	for _, durable := range []bool{false, true} {
		for _, committers := range []int{1, 2} {
			for _, width := range []int{1, 2} {
				b.Run(fmt.Sprintf("durable=%v/committers=%d/width=%d", durable, committers, width), func(b *testing.B) {
					benchAnchored(b, durable, committers, width)
				})
			}
		}
	}
}

func benchAnchored(b *testing.B, durable bool, committers, width int) {
	opts := []causalgc.Option{causalgc.WithShards(width)}
	var n *causalgc.Node
	if durable {
		var err error
		opts = append(opts, causalgc.WithPersistence(b.TempDir()))
		if n, err = causalgc.Recover(1, opts...); err != nil {
			b.Fatal(err)
		}
	} else {
		n = causalgc.NewNode(1, opts...)
	}
	defer n.Close()

	anchors := make([]causalgc.Ref, committers)
	held := make([][]anchoredChain, committers)
	for i := range anchors {
		var err error
		if anchors[i], err = n.NewLocal(n.Root().Obj); err != nil {
			b.Fatal(err)
		}
		// Warm: two commits' worth of chains to drop from the first one.
		if held[i], err = commitAnchored(n, anchors[i], nil, 2*anchoredChains); err != nil {
			b.Fatal(err)
		}
	}

	perCommitter := max(b.N/committers, 1)
	errs := make([]error, committers)
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for i := range anchors {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for commit := 1; commit <= perCommitter; commit++ {
				fresh, err := commitAnchored(n, anchors[i], held[i][:anchoredChains], anchoredChains)
				if err != nil {
					errs[i] = err
					return
				}
				held[i] = append(held[i][anchoredChains:], fresh...)
				if commit%anchoredCollect == 0 {
					if _, err := n.Collect(); err != nil {
						errs[i] = err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(committers*perCommitter*anchoredOps)/elapsed.Seconds(), "ops/s")
}

// commitAnchored commits one group on the anchor's shard: create k
// chains under anchor and drop the chains in drop, each bottom-up (so
// every drop is legal when it applies and frees one object). It returns
// the created chains.
func commitAnchored(n *causalgc.Node, anchor causalgc.Ref, drop []anchoredChain, k int) ([]anchoredChain, error) {
	bt := n.Batch()
	staged := make([][4]*causalgc.BatchRef, k)
	for i := range staged {
		a := bt.NewLocal(bt.Ref(anchor))
		b := bt.NewLocal(a)
		c := bt.NewLocal(b)
		staged[i] = [4]*causalgc.BatchRef{a, b, c, bt.NewLocal(c)}
	}
	for _, ch := range drop {
		for j := 3; j >= 0; j-- {
			holder := bt.Ref(anchor)
			if j > 0 {
				holder = bt.Ref(ch[j-1])
			}
			bt.DropRefs(holder, bt.Ref(ch[j]))
		}
	}
	if err := bt.Commit(); err != nil {
		return nil, err
	}
	out := make([]anchoredChain, k)
	for i, s := range staged {
		out[i] = anchoredChain{s[0].Ref(), s[1].Ref(), s[2].Ref(), s[3].Ref()}
	}
	return out, nil
}
