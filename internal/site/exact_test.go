package site

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/wire"
)

// engineRowsTo maps every retained destroy bundle and edge-assert
// toward peer, across all shards, to its edge, keyed by stream and
// sequence. Two rows sharing a (stream, sequence) show as a count above
// the map's size.
func engineRowsTo(t *testing.T, s *Site, peer ids.SiteID) (map[string]string, int) {
	t.Helper()
	out := make(map[string]string)
	n := 0
	for i, r := range s.shards {
		r.mu.Lock()
		for _, kind := range []core.Stream{core.StreamDestroy, core.StreamAssert} {
			r.ledger(kind).Each(func(to ids.SiteID, p netsim.Payload, seq uint64) {
				if to != peer {
					return
				}
				n++
				switch f := p.(type) {
				case wire.Destroy:
					out[fmt.Sprintf("destroy/%d", seq)] = fmt.Sprintf("shard %d: %v→%v", i, f.From, f.To)
				case wire.Assert:
					out[fmt.Sprintf("assert/%d", seq)] = fmt.Sprintf("shard %d: %v→%v via %v#%d", i, f.From, f.To, f.M.Intro, f.M.IntroSeq)
				}
			})
		}
		r.mu.Unlock()
	}
	return out, n
}

// TestShardedEngineStreamReplayExact: the destroy and assert streams
// are drawn by the engines as they apply, from the site's shared
// per-(peer, stream) counters, while shards of a durable site run
// concurrently. Replay must bind every retained row to the sequence it
// was sent under: a rebound row would be retired by an acknowledgement
// of a frame the peer never received.
func TestShardedEngineStreamReplayExact(t *testing.T) {
	const (
		shards    = 4
		perWorker = 256
		trials    = 10
	)
	for trial := 0; trial < trials; trial++ {
		dir := t.TempDir()
		net := netsim.NewAsync(netsim.Faults{Seed: int64(trial + 1)})
		p, err := OpenPersist(dir, nosyncPersist)
		if err != nil {
			t.Fatal(err)
		}
		s, err := RecoverSharded(1, net, DefaultOptions(), p, shards)
		if err != nil {
			t.Fatal(err)
		}
		root := s.Root().Obj
		anchors := make([]heap.Ref, shards) // rr placement: one per shard
		for i := range anchors {
			anchors[i] = mustRef(t)(s.NewLocal(root))
		}
		// Peer 2 is never registered: nothing toward it is acknowledged,
		// so every row stays retained.
		var wg sync.WaitGroup
		for w := 0; w < shards; w++ {
			wg.Add(1)
			go func(a, next heap.Ref) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					ref, err := s.NewRemote(a.Obj, 2)
					if err == nil && i%8 == 0 {
						// A third-party transfer to a sibling's anchor: the
						// receiving shard asserts the edge toward peer 2.
						err = s.SendRef(a.Obj, next, ref)
					}
					if err == nil {
						err = s.DropRefs(a.Obj, ref)
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(anchors[w], anchors[(w+1)%shards])
		}
		wg.Wait()
		net.Quiesce()
		if t.Failed() {
			net.Close()
			t.Fatal("worker commit failed")
		}
		want, n := engineRowsTo(t, s, 2)
		if n != len(want) || n < shards*perWorker {
			net.Close()
			t.Fatalf("trial %d: %d retained rows on %d distinct stream sequences, want at least %d distinct",
				trial, n, len(want), shards*perWorker)
		}
		if err := p.Close(); err != nil { // crash
			t.Fatal(err)
		}

		p2, err := OpenPersist(dir, nosyncPersist)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := RecoverSharded(1, net, DefaultOptions(), p2, shards)
		if err != nil {
			t.Fatal(err)
		}
		net.Quiesce()
		got, n2 := engineRowsTo(t, s2, 2)
		net.Close()
		p2.Close()
		if n2 != len(got) || !reflect.DeepEqual(got, want) {
			rebound := 0
			for k, row := range want {
				if got[k] != row {
					rebound++
					if rebound <= 3 {
						t.Errorf("trial %d: %s: live row %s, recovered %q", trial, k, row, got[k])
					}
				}
			}
			t.Fatalf("trial %d: replay rebound %d of %d retained rows (%d recovered on %d sequences)",
				trial, rebound, len(want), n2, len(got))
		}
	}
}

// TestShardedCycleReplayExact: a site-wide Collect sweeps its shards
// one at a time while commits on the other shards run on. Replay must
// sweep each shard where the live run did — after the commits that
// shard ran before its sweep, before the ones it ran after — or the
// recovered heap keeps garbage the live one freed.
func TestShardedCycleReplayExact(t *testing.T) {
	const (
		trials = 10
		ops    = 300
	)
	for trial := 0; trial < trials; trial++ {
		dir := t.TempDir()
		net := netsim.NewSim(netsim.Faults{Seed: 1})
		p, err := OpenPersist(dir, nosyncPersist)
		if err != nil {
			t.Fatal(err)
		}
		s, err := RecoverSharded(1, net, DefaultOptions(), p, 2)
		if err != nil {
			t.Fatal(err)
		}
		root := s.Root().Obj
		_ = mustRef(t)(s.NewLocal(root))  // rr → shard 0
		a := mustRef(t)(s.NewLocal(root)) // rr → shard 1
		var stop atomic.Bool
		defer stop.Store(true) // a failed trial stops the collector too
		done := make(chan error, 1)
		go func() {
			for !stop.Load() {
				if _, err := s.Collect(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		for i := 0; i < ops; i++ {
			x := mustRef(t)(s.Apply(wire.OpRecord{Kind: wire.OpNewLocalIn, Holder: a.Obj, Clu: a.Cluster}))
			if err := s.DropRefs(a.Obj, x); err != nil {
				t.Fatal(err)
			}
		}
		stop.Store(true)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		_, want := s.Snapshot()
		if err := p.Close(); err != nil { // crash
			t.Fatal(err)
		}
		net.Unregister(1)

		p2, err := OpenPersist(dir, nosyncPersist)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := RecoverSharded(1, net, DefaultOptions(), p2, 2)
		if err != nil {
			t.Fatal(err)
		}
		_, got := s2.Snapshot()
		p2.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: live heap %d objects, recovered %d:\n live      %v\n recovered %v",
				trial, len(want), len(got), objectIDs(want), objectIDs(got))
		}
	}
}

// objectIDs lists the objects of a snapshot.
func objectIDs(objs []ObjectSnapshot) []ids.ObjectID {
	out := make([]ids.ObjectID, len(objs))
	for i, o := range objs {
		out[i] = o.ID
	}
	return out
}

// TestPeerRestartRearmsEveryShard: a peer's restart (a new epoch on its
// FrameAck) re-arms the re-send dampers of every shard's rows bound for
// it, not only those of the first shard the acknowledgement reaches.
func TestPeerRestartRearmsEveryShard(t *testing.T) {
	for _, restart := range []bool{true, false} {
		t.Run(fmt.Sprintf("restart=%v", restart), func(t *testing.T) {
			net := netsim.NewSim(netsim.Faults{Seed: 1})
			net.Register(2, func(ids.SiteID, netsim.Payload) {}) // never answers
			s := NewSharded(1, net, DefaultOptions(), 2)
			root := s.Root().Obj
			for i := 0; i < 2; i++ {
				a := mustRef(t)(s.NewLocal(root)) // rr: one anchor per shard
				ref := mustRef(t)(s.NewRemote(a.Obj, 2))
				if err := s.DropRefs(a.Obj, ref); err != nil {
					t.Fatal(err)
				}
			}
			run := func() {
				t.Helper()
				if _, err := net.Run(0); err != nil {
					t.Fatal(err)
				}
			}
			run()
			for i, r := range s.shards {
				r.mu.Lock()
				rows := r.ledger(core.StreamDestroy).Len()
				r.mu.Unlock()
				if rows == 0 {
					t.Fatalf("shard %d retains no destroy row toward the peer", i)
				}
			}
			ack := func(epoch uint64) {
				net.Send(2, 1, wire.FrameAck{Stream: core.StreamDestroy, Epoch: epoch})
				run()
			}
			ack(0)
			for i := 0; i < 12; i++ { // damp the rows
				if err := s.Refresh(); err != nil {
					t.Fatal(err)
				}
				run()
			}
			if restart {
				ack(1)
			} else {
				ack(0)
			}
			before := s.EngineStats().DestroyResends
			if err := s.Refresh(); err != nil {
				t.Fatal(err)
			}
			run()
			want := 0
			if restart {
				want = 2
			}
			if got := s.EngineStats().DestroyResends - before; got != want {
				t.Fatalf("the refresh after the ack re-sent %d destroy rows, want %d", got, want)
			}
		})
	}
}
