package site

import (
	"fmt"
	"testing"

	"causalgc/internal/core"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/vclock"
	"causalgc/internal/wire"
)

// chainBatch is one commit of 32 chained NewLocal ops under holder,
// then a DropRefs of the chain's head: the chain becomes garbage in the
// same commit and the settle cascade reclaims it.
func chainBatch(holder ids.ObjectID) []wire.BatchOp {
	ops := make([]wire.BatchOp, 0, 33)
	ops = append(ops, wire.BatchOp{Op: wire.OpRecord{Kind: wire.OpNewLocal, Holder: holder}})
	for i := 1; i < 32; i++ {
		ops = append(ops, wire.BatchOp{Op: wire.OpRecord{Kind: wire.OpNewLocal}, HolderFrom: i})
	}
	return append(ops, wire.BatchOp{Op: wire.OpRecord{Kind: wire.OpDropRefs, Holder: holder}, TargetFrom: 1})
}

// TestApplyBatchAllocs bounds the allocations of one batch commit
// through ApplyBatch on a volatile one-shard site at steady state:
// create a 32-object chain, drop it, and let the cascade reclaim it. It
// measured 814 allocations when the gate was set; the bound leaves 16
// for the amortised growth of the engine's tombstone map, less than one
// extra allocation per op of the batch.
func TestApplyBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	s := New(1, netsim.NewSim(netsim.Faults{Seed: 1}), DefaultOptions())
	ops := chainBatch(s.Root().Obj)
	commit := func() {
		if _, err := s.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // steady state: the maps have grown
		commit()
	}
	got := testing.AllocsPerRun(200, commit)
	t.Logf("one 33-op batch commit: %.0f allocations", got)
	if n := s.NumObjects(); n != 1 {
		t.Fatalf("the chains were not reclaimed: %d objects", n)
	}
	if got > 814+16 {
		t.Fatalf("one 33-op batch commit allocates %.0f times, want <= %d", got, 814+16)
	}
}

// TestDeliverEnvelopeAllocs bounds the allocations of one received
// envelope of three propagations into a volatile site at steady state,
// at widths 1 and 2. All three name one cluster, so they route to one
// shard, and re-deliveries change nothing: what is counted is the
// routing and dispatch. The cluster is one the site has not created,
// whose unborn process is never evaluated, and then the site's root
// cluster, whose born process a delivery that changes nothing must not
// evaluate either: the root measured 22 allocations while every
// delivery ran a full closure. An ack-free envelope bound for one shard
// is delivered whole, never re-boxed: it measured 7 allocations at both
// widths when the gate was set, and 12 when every envelope was split
// into per-shard parts.
func TestDeliverEnvelopeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	for _, width := range []int{1, 2} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			s := NewSharded(1, netsim.NewSim(netsim.Faults{Seed: 1}), DefaultOptions(), width)
			for _, to := range []ids.ClusterID{{Site: 1, Seq: 1 << 20}, s.Root().Cluster} {
				var env wire.Envelope
				for i := uint64(1); i <= 3; i++ {
					from := ids.ClusterID{Site: 2, Seq: i}
					env.Frames = append(env.Frames, wire.Propagate{From: from, To: to, M: core.Propagation{
						Clock: 1, Auth: vclock.Vector{from: vclock.At(1)},
					}})
				}
				deliver := func() { s.handleNet(2, env) }
				deliver() // the first delivery merges; the rest change nothing
				got := testing.AllocsPerRun(200, deliver)
				t.Logf("one 3-propagation envelope to %v at width %d: %.0f allocations", to, width, got)
				if got > 7 {
					t.Fatalf("one 3-propagation envelope to %v at width %d allocates %.0f times, want <= 7", to, width, got)
				}
			}
		})
	}
}
