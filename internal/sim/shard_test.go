package sim

import (
	"sync"
	"testing"

	"causalgc/internal/heap"
	"causalgc/internal/netsim"
	"causalgc/internal/oracle"
	"causalgc/internal/site"
	"causalgc/internal/wire"
)

// This file is the multi-shard equivalence lane: a striped site must be
// indistinguishable from a one-shard site under every fault the harness
// can throw. Two batteries:
//
//   - TestShardedEquivalenceFuzz replays the seeded symbolic op stream
//     of the batch lane against a 4-shard world and a 1-shard
//     reference world — drops, duplication, reordering and a
//     kill-and-restart included — and demands identical minted
//     references and identical clean oracle verdicts.
//   - TestShardedConcurrentCommitters is the true-concurrency safety
//     battery (run under -race): committers pinned to distinct shards
//     mutate one site simultaneously, with cross-shard SendRef chains
//     and a concurrent collector, then everything is dropped and the
//     site must collect down to its root.

// TestShardedEquivalenceFuzz: same plan, same seed, same faults —
// 4-shard and 1-shard executions may not diverge in anything the
// mutator or the oracle can observe.
func TestShardedEquivalenceFuzz(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	const sites, rounds, shards = 4, 30, 4
	for _, seed := range seeds {
		plan := makeBatchPlan(seed, sites, rounds)
		wRef, poolRef := execBatchPlan(t, plan, seed, sites, t.TempDir(), false, 1)
		wSh, poolSh := execBatchPlan(t, plan, seed, sites, t.TempDir(), false, shards)
		if len(poolRef) != len(poolSh) {
			t.Fatalf("seed %d: pool sizes diverge: 1-shard %d, %d-shard %d", seed, len(poolRef), shards, len(poolSh))
		}
		for i := range poolRef {
			if poolRef[i] != poolSh[i] {
				t.Fatalf("seed %d: minted ref %d diverges: 1-shard %v, %d-shard %v", seed, i, poolRef[i], shards, poolSh[i])
			}
		}
		repRef, repSh := wRef.Check(), wSh.Check()
		if !repRef.Clean() || !repSh.Clean() {
			t.Fatalf("seed %d: verdicts diverge from clean: 1-shard %v, %d-shard %v", seed, repRef, shards, repSh)
		}
		if repRef.Live != repSh.Live {
			t.Fatalf("seed %d: live counts diverge: 1-shard %d, %d-shard %d", seed, repRef.Live, shards, repSh.Live)
		}
		t.Logf("seed %d: both widths clean with %d live objects", seed, repRef.Live)
		wRef.Close()
		wSh.Close()
	}
}

// TestShardedConcurrentCommitters exercises genuine multi-core
// interleavings on one 4-shard site: four committers, each anchored to
// its own shard, extend private chains, periodically hand references
// across the shard boundary, and race a collector goroutine. At the
// end the anchors are dropped and the whole graph — cross-shard cycles
// included — must be reclaimed.
func TestShardedConcurrentCommitters(t *testing.T) {
	const (
		workers = 4
		iters   = 300
	)
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	s := site.NewSharded(1, net, site.DefaultOptions(), workers)
	root := s.Root().Obj

	// Anchors are created sequentially so round-robin placement pins
	// committer i to shard i.
	anchors := make([]heap.Ref, workers)
	for i := range anchors {
		ref, err := s.NewLocal(root)
		if err != nil {
			t.Fatal(err)
		}
		anchors[i] = ref
	}

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			anchor := anchors[i]
			cur := anchor.Obj
			var last heap.Ref
			for n := 0; n < iters; n++ {
				switch n % 8 {
				case 3:
					// Cross-shard handoff: give the next committer's
					// anchor the newest link of our chain.
					if last != heap.NilRef {
						to := anchors[(i+1)%workers]
						if err := s.SendRef(anchor.Obj, to, last); err != nil {
							t.Error(err)
							return
						}
					}
				case 6:
					// Drop our own edge to the newest link (it may
					// survive through the neighbour's anchor).
					if last != heap.NilRef {
						if err := s.DropRefs(anchor.Obj, last); err != nil {
							t.Error(err)
							return
						}
						last = heap.NilRef
					}
				default:
					ref, err := s.Apply(wire.OpRecord{Kind: wire.OpNewLocalIn, Holder: cur, Clu: anchor.Cluster})
					if err != nil {
						t.Error(err)
						return
					}
					cur = ref.Obj
					// Keep the chain reachable from the anchor directly
					// too, so SendRef below always holds its target.
					if _, err := s.Apply(wire.OpRecord{Kind: wire.OpAddRef, Holder: anchor.Obj, Target: ref}); err != nil {
						t.Error(err)
						return
					}
					last = ref
				}
			}
		}(i)
	}
	// A collector races the committers: cycle-level operations hold the
	// cycle lock, not the world.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 20; n++ {
			if _, err := s.Collect(); err != nil {
				t.Error(err)
				return
			}
			if err := s.Refresh(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	if rep := oracle.Check(s); !rep.Safe() {
		t.Fatalf("safety violation at quiescence: %v", rep)
	}

	// Tear down: drop every anchor; everything else hangs off them.
	for _, a := range anchors {
		if err := s.DropRefs(root, a); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 24 && s.NumObjects() > 1; round++ {
		if _, err := s.Collect(); err != nil {
			t.Fatal(err)
		}
		if err := s.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.NumObjects(); got != 1 {
		rep := oracle.Check(s)
		t.Fatalf("NumObjects = %d after dropping all anchors, want 1 (oracle: %v)", got, rep)
	}
	if rep := oracle.Check(s); !rep.Clean() {
		t.Errorf("not clean at quiescence: %v", rep)
	}
}
