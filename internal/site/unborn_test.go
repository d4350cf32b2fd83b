package site

import (
	"fmt"
	"reflect"
	"testing"

	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/vclock"
	"causalgc/internal/wire"
	"causalgc/persist"
)

// remoteMinted is the identity site 2 would mint for its n-th creation
// on site 1's behalf (applyNewRemoteLocked's scheme).
func remoteMinted(n uint64) heap.Ref {
	seq := uint64(2)<<32 | n
	return heap.Ref{Obj: ids.ObjectID{Site: 1, Seq: seq}, Cluster: ids.ClusterID{Site: 1, Seq: seq}}
}

// lifecycle records the observer events of one site.
type lifecycle struct {
	removed []ids.ClusterID
	swept   int
}

func (l *lifecycle) ClusterRemoved(_ ids.SiteID, cl ids.ClusterID) { l.removed = append(l.removed, cl) }
func (l *lifecycle) Collected(_ ids.SiteID, st heap.CollectStats)  { l.swept += st.Swept }

// TestEarlyDestroyReclaimsAtBirth: the Ē that condemns a cluster arrives
// before the cluster's creation message. The object must be created and
// then reclaimed — the verdict the early frame could not trigger runs at
// birth, after the site has built the heap shell the removal sweeps. Run
// inside Register instead, it would tombstone the cluster first and the
// creation would then materialise an entry-rooted object no verdict can
// ever reach again: a zombie.
func TestEarlyDestroyReclaimsAtBirth(t *testing.T) {
	for _, width := range []int{1, 3} {
		net := netsim.NewSim(netsim.Faults{Seed: 1})
		obs := &lifecycle{}
		opts := DefaultOptions()
		opts.Observer = obs
		s := NewSharded(1, net, opts, width)
		net.Register(2, func(ids.SiteID, netsim.Payload) {})
		creator := ids.ClusterID{Site: 2, Seq: 7}
		ref := remoteMinted(1)
		s.handleNet(2, wire.Destroy{From: creator, To: ref.Cluster, M: core.DestroyMsg{Auth: vclock.Vector{creator: vclock.Eps(5)}}, Seq: 1})
		if d := s.Depths(); d.PendingDeliveries != 1 {
			t.Fatalf("width %d: unborn gauge = %d after the early destroy, want 1", width, d.PendingDeliveries)
		}
		if s.ClusterRemoved(ref.Cluster) {
			t.Fatalf("width %d: cluster removed before it was created", width)
		}
		s.handleNet(2, wire.Create{Creator: creator, Stamp: 4, Obj: ref.Obj, Cluster: ref.Cluster})
		if s.HasObject(ref.Obj) {
			t.Fatalf("width %d: zombie: the condemned object outlived its creation", width)
		}
		if !s.ClusterRemoved(ref.Cluster) || !reflect.DeepEqual(obs.removed, []ids.ClusterID{ref.Cluster}) {
			t.Fatalf("width %d: removals = %v, want exactly the condemned cluster", width, obs.removed)
		}
		if obs.swept != 1 {
			t.Fatalf("width %d: swept %d objects, want the one created and reclaimed", width, obs.swept)
		}
		if d := s.Depths(); d.PendingDeliveries != 0 {
			t.Errorf("width %d: unborn gauge = %d after birth, want 0", width, d.PendingDeliveries)
		}
	}
}

// TestForeignCreateIsDroppedAndCounted: a creation message naming another
// site's cluster or object is input from outside the program. It used to
// reach Engine.Register, which panics on a foreign cluster — and since
// the delivery is journaled first, a durable site replayed the panic on
// every recovery. It is dropped, counted and settled instead.
func TestForeignCreateIsDroppedAndCounted(t *testing.T) {
	own := remoteMinted(1)
	foreign := heap.Ref{Obj: ids.ObjectID{Site: 9, Seq: 4}, Cluster: ids.ClusterID{Site: 9, Seq: 4}}
	creator := ids.ClusterID{Site: 2, Seq: 1, Root: true}
	frames := []wire.Create{
		{Creator: creator, Stamp: 1, Obj: foreign.Obj, Cluster: foreign.Cluster, Seq: 1},
		{Creator: creator, Stamp: 2, Obj: own.Obj, Cluster: foreign.Cluster, Seq: 2},
		{Creator: creator, Stamp: 3, Obj: foreign.Obj, Cluster: own.Cluster, Seq: 3},
	}
	check := func(t *testing.T, s *Site) {
		t.Helper()
		if got := s.EngineStats().StaleDeliveries; got != len(frames) {
			t.Errorf("StaleDeliveries = %d, want %d", got, len(frames))
		}
		if got := s.NumObjects(); got != 1 {
			t.Errorf("%d objects, want the root alone", got)
		}
		if s.Depths().PendingDeliveries != 0 || s.LogSnapshot(own.Cluster) != nil {
			t.Error("a refused creation left an engine process behind")
		}
		s.st.mu.Lock()
		defer s.st.mu.Unlock()
		if tr := s.st.recv[streamKey{peer: 2, kind: core.StreamMut}]; tr == nil || tr.watermark != uint64(len(frames)) {
			t.Errorf("refused creations not settled: tracker %+v", tr)
		}
	}
	t.Run("volatile", func(t *testing.T) {
		net := netsim.NewSim(netsim.Faults{Seed: 1})
		s := New(1, net, DefaultOptions())
		net.Register(2, func(ids.SiteID, netsim.Payload) {})
		for _, f := range frames {
			net.Send(2, 1, f)
		}
		if _, err := net.Run(0); err != nil {
			t.Fatal(err)
		}
		check(t, s)
	})
	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		popts := PersistOptions{SnapshotEvery: 1 << 30, Store: persist.Options{NoSync: true}}
		net := netsim.NewSim(netsim.Faults{Seed: 1})
		net.Register(2, func(ids.SiteID, netsim.Payload) {})
		p, err := OpenPersist(dir, popts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Recover(1, net, DefaultOptions(), p)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			s.handleNet(2, f)
		}
		check(t, s)
		if err := p.Close(); err != nil { // crash: the three deliveries are in the WAL
			t.Fatal(err)
		}
		net.Unregister(1)
		p2, err := OpenPersist(dir, popts)
		if err != nil {
			t.Fatal(err)
		}
		defer p2.Close()
		s2, err := Recover(1, net, DefaultOptions(), p2)
		if err != nil {
			t.Fatalf("recovery over journaled foreign creations: %v", err)
		}
		check(t, s2)
	})
}

// unbornState is what TestRecoverWithUnbornProcess compares across runs.
type unbornState struct {
	root    ids.ObjectID
	objs    []ObjectSnapshot
	engines []core.EngineImage
	outbox  map[uint64]ids.ObjectID
	acks    []string
	unborn  int
}

// TestRecoverWithUnbornProcess: an Assert and an Ē bundle land before the
// Create of the cluster they name, so the cluster's process exists
// unborn. The site checkpoints and crashes — or crashes with the frames
// in the WAL only — recovers, and then receives the Create. Heap, engine
// images, outbox and the acknowledgements sent must equal those of the
// run that never crashed: the unborn process is durable state like any
// other, and its birth replays exactly.
func TestRecoverWithUnbornProcess(t *testing.T) {
	creator := ids.ClusterID{Site: 2, Seq: 1, Root: true}
	holder := ids.ClusterID{Site: 2, Seq: 8}
	dropper := ids.ClusterID{Site: 2, Seq: 9}
	ref := remoteMinted(1)
	const (
		uncrashed = iota
		crashAfterCheckpoint
		crashBeforeCheckpoint
	)
	run := func(t *testing.T, width, mode int) unbornState {
		t.Helper()
		dir := t.TempDir()
		popts := PersistOptions{SnapshotEvery: 1 << 30, Store: persist.Options{NoSync: true}}
		net := netsim.NewSim(netsim.Faults{Seed: 1})
		var st unbornState
		listening := false
		net.Register(2, func(_ ids.SiteID, p netsim.Payload) {
			frames := []netsim.Payload{p}
			if env, ok := p.(wire.Envelope); ok {
				frames = env.Frames
			}
			for _, f := range frames {
				if ack, ok := f.(wire.FrameAck); ok && listening {
					st.acks = append(st.acks, fmt.Sprintf("%v<=%d", ack.Stream, ack.Seq))
				}
			}
		})
		p, err := OpenPersist(dir, popts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := RecoverSharded(1, net, DefaultOptions(), p, width)
		if err != nil {
			t.Fatal(err)
		}
		// Something for the outbox to hold across the crash.
		if _, err := s.NewRemote(s.Root().Obj, 2); err != nil {
			t.Fatal(err)
		}
		s.handleNet(2, wire.Assert{From: holder, To: ref.Cluster, M: core.AssertMsg{Stamp: 5, Intro: creator, IntroSeq: 2}, Seq: 1})
		s.handleNet(2, wire.Destroy{From: dropper, To: ref.Cluster, Seq: 1, M: core.DestroyMsg{
			Auth:  vclock.Vector{dropper: vclock.Eps(3)},
			Hints: vclock.Vector{holder: vclock.At(2)},
		}})
		if got := s.Depths().PendingDeliveries; got != 1 {
			t.Fatalf("unborn gauge = %d before the creation, want 1", got)
		}
		if mode == uncrashed {
			// Recovery ends with one refresh round; the reference run takes
			// the same round at the same point.
			if err := s.Refresh(); err != nil {
				t.Fatal(err)
			}
		} else {
			if mode == crashAfterCheckpoint {
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			net.Unregister(1)
			if p, err = OpenPersist(dir, popts); err != nil {
				t.Fatal(err)
			}
			if s, err = RecoverSharded(1, net, DefaultOptions(), p, width); err != nil {
				t.Fatal(err)
			}
			if got := s.Depths().PendingDeliveries; got != 1 {
				t.Fatalf("unborn gauge = %d after recovery, want 1", got)
			}
		}
		defer p.Close()
		if _, err := net.Run(0); err != nil {
			t.Fatal(err)
		}
		listening = true
		s.handleNet(2, wire.Create{Creator: creator, Stamp: 1, Obj: ref.Obj, Cluster: ref.Cluster, Seq: 1})
		if _, err := net.Run(0); err != nil {
			t.Fatal(err)
		}
		if !s.HasObject(ref.Obj) {
			t.Fatal("the created object is missing: its root creator still holds it")
		}
		st.root, st.objs = s.Snapshot()
		for _, r := range s.shards {
			r.mu.Lock()
			img, err := r.engine.Export()
			r.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			st.engines = append(st.engines, img)
		}
		st.outbox, _ = outboxFramesTo(s, 2)
		st.unborn = s.Depths().PendingDeliveries
		return st
	}
	for _, width := range []int{1, 3} {
		want := run(t, width, uncrashed)
		if want.unborn != 0 || len(want.outbox) != 1 || len(want.acks) == 0 {
			t.Fatalf("width %d: reference run: unborn %d, outbox %v, acks %v", width, want.unborn, want.outbox, want.acks)
		}
		for mode, name := range map[int]string{crashAfterCheckpoint: "snapshot", crashBeforeCheckpoint: "WAL only"} {
			got := run(t, width, mode)
			if got.root != want.root || !reflect.DeepEqual(got.objs, want.objs) {
				t.Errorf("width %d, %s: heap differs from the uncrashed run's\ngot  %+v\nwant %+v", width, name, got.objs, want.objs)
			}
			if !reflect.DeepEqual(got.engines, want.engines) {
				t.Errorf("width %d, %s: engine images differ from the uncrashed run's\ngot  %+v\nwant %+v", width, name, got.engines, want.engines)
			}
			if !reflect.DeepEqual(got.outbox, want.outbox) {
				t.Errorf("width %d, %s: outbox %v, uncrashed %v", width, name, got.outbox, want.outbox)
			}
			if !reflect.DeepEqual(got.acks, want.acks) {
				t.Errorf("width %d, %s: acks %v, uncrashed %v", width, name, got.acks, want.acks)
			}
			if got.unborn != 0 {
				t.Errorf("width %d, %s: unborn gauge = %d after birth", width, name, got.unborn)
			}
		}
	}
}
