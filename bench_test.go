// Package causalgc's top-level benchmarks regenerate the quantitative
// content of every experiment in EXPERIMENTS.md (one benchmark per table
// or figure of the paper's evaluation material). Message counts — the
// paper's §4 comparison metric — are reported as custom benchmark units:
//
//	go test -bench=. -benchmem
//
// The cmd/causalgc-bench binary prints the same data as tables.
package causalgc

import (
	"fmt"
	"testing"
	"time"

	"causalgc/internal/baseline/schelvis"
	"causalgc/internal/baseline/tracing"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/mutator"
	"causalgc/internal/netsim"
	"causalgc/internal/sim"
	"causalgc/internal/site"
	"causalgc/internal/wire"
	"causalgc/persist"
)

// BenchmarkE5PaperScenario regenerates Fig 8: building the Fig 3 cycle,
// dropping the root edge, and collecting the three-site garbage cycle.
func BenchmarkE5PaperScenario(b *testing.B) {
	var msgs, destroys, props int
	for i := 0; i < b.N; i++ {
		w := sim.NewWorld(4, netsim.Faults{Seed: 1}, site.DefaultOptions())
		sc, err := mutator.BuildPaperScenario(w)
		if err != nil {
			b.Fatal(err)
		}
		st := w.Net().Stats()
		base := st.TotalSent()
		if err := sc.DropRootEdge(); err != nil {
			b.Fatal(err)
		}
		if err := w.Settle(); err != nil {
			b.Fatal(err)
		}
		if rep := w.Check(); !rep.Clean() {
			b.Fatalf("scenario not clean: %v", rep)
		}
		msgs += st.TotalSent() - base
		destroys += st.Sent("ggd.destroy")
		props += st.Sent("ggd.prop")
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
	b.ReportMetric(float64(destroys)/float64(b.N), "destroys/op")
	b.ReportMetric(float64(props)/float64(b.N), "props/op")
}

// benchDLLCausal measures GGD messages to collect a detached k-element
// doubly-linked list. With unsafeGuard the paper's literal removal test is
// used (no row-confirmation requirement): it reproduces the §4 O(k) claim,
// but the A2 ablation shows that guard is unsound under third-party
// introduction races; the sound guard needs all-pairs knowledge inside the
// mutually-cyclic garbage subgraph and costs O(k²) messages on DLLs
// (EXPERIMENTS.md discusses the trade-off).
func benchDLLCausal(b *testing.B, k int, unsafeGuard bool) {
	var msgs int
	for i := 0; i < b.N; i++ {
		opts := site.DefaultOptions()
		opts.Engine.UnsafeSkipConfirmation = unsafeGuard
		w := sim.NewWorld(k+1, netsim.Faults{Seed: 1}, opts)
		dll, err := mutator.BuildDLL(w, k)
		if err != nil {
			b.Fatal(err)
		}
		st := w.Net().Stats()
		base := st.TotalSent()
		if err := dll.Detach(); err != nil {
			b.Fatal(err)
		}
		if err := w.Settle(); err != nil {
			b.Fatal(err)
		}
		if rep := w.Check(); !rep.Clean() {
			b.Fatalf("k=%d not clean: %v", k, rep)
		}
		msgs += st.TotalSent() - base
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
	b.ReportMetric(float64(msgs)/float64(b.N)/float64(k), "msgs/elem")
}

// benchDLLSchelvis measures the same workload under the §4 comparison
// algorithm.
func benchDLLSchelvis(b *testing.B, k int) {
	var msgs int
	for i := 0; i < b.N; i++ {
		net := netsim.NewSim(netsim.Faults{Seed: 1})
		dets := make([]*schelvis.Detector, k+1)
		for j := 0; j <= k; j++ {
			dets[j] = schelvis.New(ids.SiteID(j+1), net, k+2, nil)
		}
		root := ids.ClusterID{Site: 1, Seq: 1, Root: true}
		dets[0].AddVertex(root)
		elems := make([]ids.ClusterID, k)
		for j := 0; j < k; j++ {
			elems[j] = ids.ClusterID{Site: ids.SiteID(j + 2), Seq: 1}
			dets[j+1].AddVertex(elems[j])
			dets[0].CreateEdge(root, elems[j])
		}
		for j := 0; j+1 < k; j++ {
			dets[j+1].CreateEdge(elems[j], elems[j+1])
			dets[j+2].CreateEdge(elems[j+1], elems[j])
		}
		if _, err := net.Run(0); err != nil {
			b.Fatal(err)
		}
		for _, d := range dets {
			d.Kick()
		}
		if _, err := net.Run(0); err != nil {
			b.Fatal(err)
		}
		base := net.Stats().TotalSent()
		for _, e := range elems {
			dets[0].DestroyEdge(root, e)
		}
		if _, err := net.Run(0); err != nil {
			b.Fatal(err)
		}
		removed := 0
		for _, d := range dets {
			removed += d.Removed()
		}
		if removed != k {
			b.Fatalf("schelvis collected %d of %d", removed, k)
		}
		msgs += net.Stats().TotalSent() - base
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
	b.ReportMetric(float64(msgs)/float64(b.N)/float64(k), "msgs/elem")
}

// BenchmarkE6DLL regenerates the §4 table: messages to collect a detached
// doubly-linked list of k elements — O(k) for the causal algorithm, O(k²)
// for Schelvis. The msgs/elem unit makes the contrast immediate: flat for
// causalgc, growing ∝k for Schelvis.
func BenchmarkE6DLL(b *testing.B) {
	for _, k := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("causal-paper-guard/k=%d", k), func(b *testing.B) { benchDLLCausal(b, k, true) })
		b.Run(fmt.Sprintf("causal-sound/k=%d", k), func(b *testing.B) { benchDLLCausal(b, k, false) })
		b.Run(fmt.Sprintf("schelvis/k=%d", k), func(b *testing.B) { benchDLLSchelvis(b, k) })
	}
}

// BenchmarkE6Ring is the pure-cycle variant: a unidirectional k-ring.
func BenchmarkE6Ring(b *testing.B) {
	for _, k := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("causal/k=%d", k), func(b *testing.B) {
			var msgs int
			for i := 0; i < b.N; i++ {
				w := sim.NewWorld(k+1, netsim.Faults{Seed: 1}, site.DefaultOptions())
				ring, err := mutator.BuildRing(w, k)
				if err != nil {
					b.Fatal(err)
				}
				st := w.Net().Stats()
				base := st.TotalSent()
				if err := ring.DetachRing(); err != nil {
					b.Fatal(err)
				}
				if err := w.Settle(); err != nil {
					b.Fatal(err)
				}
				if rep := w.Check(); !rep.Clean() {
					b.Fatalf("ring k=%d not clean: %v", k, rep)
				}
				msgs += st.TotalSent() - base
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
			b.ReportMetric(float64(msgs)/float64(b.N)/float64(k), "msgs/elem")
		})
	}
}

// BenchmarkE7TracingVsCausal regenerates the §1/§2.4 contrast: graph
// tracing pays per LIVE object every iteration (plus the consensus
// round); the causal GGD pays per GARBAGE object and involves only the
// sites that host it. The workload keeps `live` remote objects alive and
// makes `garbage` remote objects unreachable.
func BenchmarkE7TracingVsCausal(b *testing.B) {
	shapes := []struct{ live, garbage int }{
		{live: 50, garbage: 5},
		{live: 100, garbage: 5},
		{live: 200, garbage: 5},
		{live: 50, garbage: 50},
	}
	for _, sh := range shapes {
		name := fmt.Sprintf("live=%d/garbage=%d", sh.live, sh.garbage)
		b.Run("tracing/"+name, func(b *testing.B) {
			var msgs int
			for i := 0; i < b.N; i++ {
				// Tracing world: the causal GGD never sweeps (AutoCollect
				// off, no Collect calls), so the tracer is the detector.
				w, drop := buildE7World(b, sh.live, sh.garbage, site.Options{AutoCollect: false})
				col := tracing.New(w.Sites(), w.Net())
				st := w.Net().Stats()
				drop()
				drive := func() {
					if err := w.Run(); err != nil {
						b.Fatal(err)
					}
				}
				drive()
				if g := col.RunEpoch(drive); len(g) < sh.garbage {
					b.Fatalf("tracing found %d, want >= %d", len(g), sh.garbage)
				}
				// Only the tracer's own traffic counts.
				msgs += st.Sent("trace.mark") + st.Sent("trace.start") + st.Sent("trace.ack")
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
		})
		b.Run("causal/"+name, func(b *testing.B) {
			var msgs int
			for i := 0; i < b.N; i++ {
				w, drop := buildE7World(b, sh.live, sh.garbage, site.DefaultOptions())
				st := w.Net().Stats()
				base := st.TotalSent()
				drop() // make the garbage subgraph unreachable
				if err := w.Settle(); err != nil {
					b.Fatal(err)
				}
				if rep := w.Check(); !rep.Clean() {
					b.Fatalf("causal not clean: %v", rep)
				}
				msgs += st.TotalSent() - base
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
		})
	}
}

// buildE7World creates 6 sites with `live` remote objects held by roots
// and a `garbage`-sized remote chain behind a single root edge; the
// returned func drops that edge.
func buildE7World(b *testing.B, live, garbage int, opts site.Options) (*sim.World, func()) {
	b.Helper()
	w := sim.NewWorld(6, netsim.Faults{Seed: 1}, opts)
	s1 := w.Site(1)
	for i := 0; i < live; i++ {
		if _, err := s1.NewRemote(s1.Root().Obj, ids.SiteID(2+i%5)); err != nil {
			b.Fatal(err)
		}
	}
	// Garbage chain: root → g0 → g1 → ... across sites, detachable by
	// dropping the single root edge to g0.
	prevObj := s1.Root().Obj
	prevSite := s1
	headDrop := func() {}
	for i := 0; i < garbage; i++ {
		ref, err := prevSite.NewRemote(prevObj, ids.SiteID(2+i%5))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r := ref
			headDrop = func() {
				if err := s1.DropRefs(s1.Root().Obj, r); err != nil {
					b.Fatal(err)
				}
			}
		}
		// Deliver the creation before chaining from the new object.
		if err := w.Run(); err != nil {
			b.Fatal(err)
		}
		prevObj = ref.Obj
		prevSite = w.Site(ref.Obj.Site)
	}
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
	return w, headDrop
}

// BenchmarkE8Robustness regenerates the §1/§5 robustness claims: under
// message loss the causal GGD never violates safety; loss only leaves
// residual garbage, which refresh rounds re-detect once the network
// heals. Reported: residual garbage after a lossy run, and after
// recovery.
func BenchmarkE8Robustness(b *testing.B) {
	for _, drop := range []float64{0, 0.1, 0.3} {
		b.Run(fmt.Sprintf("drop=%.1f", drop), func(b *testing.B) {
			var residual, recovered, dangling int
			for i := 0; i < b.N; i++ {
				w := sim.NewWorld(5, netsim.Faults{Seed: int64(i + 1), DropProb: drop, Reorder: true}, site.DefaultOptions())
				if _, err := mutator.Churn(w, mutator.ChurnConfig{Seed: int64(i+1) * 17, Ops: 150, StepsBetweenOps: 2}); err != nil {
					b.Fatal(err)
				}
				if err := w.Settle(); err != nil {
					b.Fatal(err)
				}
				rep := w.Check()
				dangling += len(rep.Dangling)
				residual += len(rep.Garbage)
				w.Net().SetDropProb(0)
				for r := 0; r < 4; r++ {
					if err := w.RefreshAll(); err != nil {
						b.Fatal(err)
					}
					if err := w.Settle(); err != nil {
						b.Fatal(err)
					}
				}
				rep = w.Check()
				dangling += len(rep.Dangling)
				recovered += len(rep.Garbage)
			}
			b.ReportMetric(float64(residual)/float64(b.N), "residual/op")
			b.ReportMetric(float64(recovered)/float64(b.N), "afterRefresh/op")
			b.ReportMetric(float64(dangling)/float64(b.N), "unsafe/op")
		})
	}
}

// BenchmarkWALAppend measures the durability overhead of one journaled
// event: encode a representative WAL record and append it to the
// segmented log — per-record fsync, group-commit windows (the fsync is
// batched across the op stream; see persist.Options.GroupCommit and
// causalgc.WithGroupCommit), and no fsync. This is the per-operation
// price every durable mutator op and delivery pays (DESIGN.md §5);
// group commit recovers most of the nosync throughput while bounding
// the OS-crash exposure to one window.
func BenchmarkWALAppend(b *testing.B) {
	rec := &wire.WALRecord{Op: &wire.OpRecord{
		Kind:   wire.OpSendRef,
		Holder: ids.ObjectID{Site: 1, Seq: 7},
		To:     heap.Ref{Obj: ids.ObjectID{Site: 2, Seq: 3}, Cluster: ids.ClusterID{Site: 2, Seq: 3}},
		Target: heap.Ref{Obj: ids.ObjectID{Site: 3, Seq: 9}, Cluster: ids.ClusterID{Site: 3, Seq: 9}},
	}}
	for _, mode := range []struct {
		name  string
		store persist.Options
	}{
		{"fsync", persist.Options{}},
		{"group=1ms", persist.Options{GroupCommit: time.Millisecond}},
		{"group=10ms", persist.Options{GroupCommit: 10 * time.Millisecond}},
		{"nosync", persist.Options{NoSync: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			p, err := site.OpenPersist(b.TempDir(), site.PersistOptions{
				SnapshotEvery: 1 << 30,
				Store:         mode.store,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := p.Store().Stats()
			if st.Appends > 0 {
				b.ReportMetric(float64(st.Syncs)/float64(st.Appends), "syncs/append")
			}
		})
	}
}

// benchNode builds a bench node: durable nodes journal with per-record
// fsync (the default durability contract) and a snapshot cadence large
// enough that the measurement isolates the commit path itself.
func benchNode(b *testing.B, durable bool) *Node {
	b.Helper()
	opts := []Option{}
	if durable {
		opts = append(opts, WithPersistence(b.TempDir()), WithSnapshotEvery(1<<20))
	}
	n := NewNode(1, opts...)
	b.Cleanup(func() { n.Close() })
	return n
}

// benchBatchSize is the group size of the batch benchmarks: half
// creates, half drops, so the heap stays bounded and every iteration
// does identical work.
const benchBatchSize = 64

// BenchmarkBatchCommit measures the batched mutator path: one commit
// of 64 ops (32 NewLocal + 32 DropRefs, deferred refs) per iteration —
// one lock acquisition, one WAL append, one fsync. Compare against
// BenchmarkSingletonOps, which performs the identical op stream one
// commit per op; the durable variants quantify the headline win (the
// per-op fsync collapses into one per group).
func BenchmarkBatchCommit(b *testing.B) {
	for _, mode := range []struct {
		name    string
		durable bool
	}{{"durable", true}, {"inmemory", false}} {
		b.Run(fmt.Sprintf("%s/size=%d", mode.name, benchBatchSize), func(b *testing.B) {
			n := benchNode(b, mode.durable)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bt := n.Batch()
				created := make([]*BatchRef, benchBatchSize/2)
				for j := range created {
					created[j] = bt.NewLocal(bt.Root())
				}
				for _, c := range created {
					bt.DropRefs(bt.Root(), c)
				}
				if err := bt.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportOpsPerSec(b, benchBatchSize)
		})
	}
}

// BenchmarkSingletonOps is the per-op baseline of BenchmarkBatchCommit:
// the same 64-op stream issued through the singleton Node methods.
func BenchmarkSingletonOps(b *testing.B) {
	for _, mode := range []struct {
		name    string
		durable bool
	}{{"durable", true}, {"inmemory", false}} {
		b.Run(fmt.Sprintf("%s/size=%d", mode.name, benchBatchSize), func(b *testing.B) {
			n := benchNode(b, mode.durable)
			root := n.Root().Obj
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				created := make([]Ref, benchBatchSize/2)
				for j := range created {
					ref, err := n.NewLocal(root)
					if err != nil {
						b.Fatal(err)
					}
					created[j] = ref
				}
				for _, ref := range created {
					if err := n.DropRefs(root, ref); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			reportOpsPerSec(b, benchBatchSize)
		})
	}
}

// BenchmarkParallelCommit is the lock-striping headline: concurrent
// mutators commit against a single node whose engine is striped over 1,
// 4 and 8 lock shards (WithShards). Each worker anchors its own cluster
// — round-robin placement spreads the anchors across shards — and then
// extends a chain inside that cluster, so every commit is a genuine
// create on the worker's own shard and the only shared state is the
// identity mint. At shards=1 every worker serialises on the one shard
// lock. This is a `go test -bench` smoke; the measured trajectory is
// the inmem-batch workload of bench/ (BENCHMARK.json).
func BenchmarkParallelCommit(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			n := NewNode(1, WithShards(shards))
			defer n.Close()
			root := n.Root().Obj
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				anchor, err := n.NewLocal(root)
				if err != nil {
					b.Error(err)
					return
				}
				cur := anchor.Obj
				for pb.Next() {
					ref, err := n.NewLocalIn(cur, anchor.Cluster)
					if err != nil {
						b.Error(err)
						return
					}
					cur = ref.Obj
				}
			})
			b.StopTimer()
			reportOpsPerSec(b, 1)
		})
	}
}

// reportOpsPerSec reports mutator throughput for a benchmark whose
// iterations each perform opsPerIter operations.
func reportOpsPerSec(b *testing.B, opsPerIter int) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N*opsPerIter)/sec, "ops/sec")
	}
}

// BenchmarkRecovery measures crash recovery: reconstruct a site from
// its snapshot-free WAL of k journaled operations (the worst case —
// every record replays).
func BenchmarkRecovery(b *testing.B) {
	for _, k := range []int{256, 1024} {
		b.Run(fmt.Sprintf("records=%d", k), func(b *testing.B) {
			dir := b.TempDir()
			opts := site.DefaultOptions()
			popts := site.PersistOptions{SnapshotEvery: 1 << 30, Store: persist.Options{NoSync: true}}
			p, err := site.OpenPersist(dir, popts)
			if err != nil {
				b.Fatal(err)
			}
			s1, err := site.Recover(1, netsim.NewSim(netsim.Faults{Seed: 1}), opts, p)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < k; i++ {
				if _, err := s1.NewLocal(s1.Root().Obj); err != nil {
					b.Fatal(err)
				}
			}
			if err := p.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pr, err := site.OpenPersist(dir, popts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := site.Recover(1, netsim.NewSim(netsim.Faults{Seed: 1}), opts, pr); err != nil {
					b.Fatal(err)
				}
				pr.Close()
			}
			b.ReportMetric(float64(k), "records/op")
		})
	}
}

// BenchmarkA2UnsafeGuard quantifies why the row-confirmation guard (and
// the hint mechanism) exist: with the paper's literal removal test the
// randomised workloads produce dangling references (live objects
// collected); the sound configuration never does.
func BenchmarkA2UnsafeGuard(b *testing.B) {
	run := func(b *testing.B, opts site.Options) (dangling int) {
		for i := 0; i < b.N; i++ {
			for seed := int64(1); seed <= 10; seed++ {
				w := sim.NewWorld(6, netsim.Faults{Seed: seed}, opts)
				if _, err := mutator.Churn(w, mutator.ChurnConfig{Seed: seed * 7, Ops: 150, StepsBetweenOps: 3}); err != nil {
					b.Fatal(err)
				}
				if err := w.Settle(); err != nil {
					b.Fatal(err)
				}
				dangling += len(w.Check().Dangling)
			}
		}
		return dangling
	}
	b.Run("sound", func(b *testing.B) {
		d := run(b, site.DefaultOptions())
		b.ReportMetric(float64(d)/float64(b.N), "dangling/op")
	})
	b.Run("paper-guard", func(b *testing.B) {
		opts := site.DefaultOptions()
		opts.Engine.UnsafeSkipConfirmation = true
		opts.Engine.UnsafeNoHints = true
		d := run(b, opts)
		b.ReportMetric(float64(d)/float64(b.N), "dangling/op")
	})
}
