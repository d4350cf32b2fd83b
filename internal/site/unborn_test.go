package site

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/vclock"
	"causalgc/internal/wire"
	"causalgc/persist"
)

// mintedBy is the identity site sender would mint for its n-th creation
// on site 1's behalf (applyNewRemoteLocked's scheme); remoteMinted is
// site 2's.
func mintedBy(sender ids.SiteID, n uint64) heap.Ref {
	seq := uint64(sender)<<32 | n
	return heap.Ref{Obj: ids.ObjectID{Site: 1, Seq: seq}, Cluster: ids.ClusterID{Site: 1, Seq: seq}}
}

func remoteMinted(n uint64) heap.Ref { return mintedBy(2, n) }

// nosyncPersist journals without fsync and never snapshots on its own.
var nosyncPersist = PersistOptions{SnapshotEvery: 1 << 30, Store: persist.Options{NoSync: true}}

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

// TestForeignTransferIsDroppedAndCounted: a reference transfer whose
// holder does not exist and which names no cluster, another site's
// cluster or another site's object gives this site nothing it could build
// the holder from. It is dropped, counted and settled, retains nothing —
// such frames used to park forever in an unbounded buffer — and a
// journaled one does not trouble recovery.
func TestForeignTransferIsDroppedAndCounted(t *testing.T) {
	own := remoteMinted(1)
	foreign := heap.Ref{Obj: ids.ObjectID{Site: 9, Seq: 4}, Cluster: ids.ClusterID{Site: 9, Seq: 4}}
	intro := ids.ClusterID{Site: 2, Seq: 5}
	target := heap.Ref{Obj: ids.ObjectID{Site: 2, Seq: 7}, Cluster: ids.ClusterID{Site: 2, Seq: 7}}
	frames := []wire.RefTransfer{
		{FromCluster: intro, IntroSeq: 1, ToObj: own.Obj, Target: target, Seq: 1},                             // no cluster
		{FromCluster: intro, IntroSeq: 2, ToObj: own.Obj, ToCluster: foreign.Cluster, Target: target, Seq: 2}, // foreign cluster
		{FromCluster: intro, IntroSeq: 3, ToObj: foreign.Obj, ToCluster: own.Cluster, Target: target, Seq: 3}, // foreign object
		{FromCluster: intro, IntroSeq: 4, ToObj: foreign.Obj, ToCluster: foreign.Cluster, Target: target, Seq: 4},
		{FromCluster: intro, IntroSeq: 5, Target: target}, // names nothing; untracked
	}
	check := func(t *testing.T, s *Site) {
		t.Helper()
		if got := s.EngineStats().StaleDeliveries; got != len(frames) {
			t.Errorf("StaleDeliveries = %d, want %d", got, len(frames))
		}
		if got := s.NumObjects(); got != 1 {
			t.Errorf("%d objects, want the root alone", got)
		}
		if d := s.Depths(); d != (Depths{}) || s.LogSnapshot(own.Cluster) != nil {
			t.Errorf("a refused transfer left state behind: %+v", d)
		}
		s.st.mu.Lock()
		defer s.st.mu.Unlock()
		if tr := s.st.recv[streamKey{peer: 2, kind: core.StreamMut}]; tr == nil || tr.watermark != 4 {
			t.Errorf("refused transfers not settled: tracker %+v", tr)
		}
	}
	for _, width := range []int{1, 3} {
		dir := t.TempDir()
		net := netsim.NewSim(netsim.Faults{Seed: 1})
		net.Register(2, func(ids.SiteID, netsim.Payload) {})
		p, err := OpenPersist(dir, nosyncPersist)
		if err != nil {
			t.Fatal(err)
		}
		s, err := RecoverSharded(1, net, DefaultOptions(), p, width)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			s.handleNet(2, f)
		}
		check(t, s)
		if err := p.Close(); err != nil { // crash: the deliveries are in the WAL
			t.Fatal(err)
		}
		net.Unregister(1)
		p2, err := OpenPersist(dir, nosyncPersist)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := RecoverSharded(1, net, DefaultOptions(), p2, width)
		if err != nil {
			t.Fatalf("width %d: recovery over journaled foreign transfers: %v", width, err)
		}
		check(t, s2)
		p2.Close()
	}
}

// unbornState is what TestRecoverWithUnbornProcess compares across runs.
type unbornState struct {
	root    ids.ObjectID
	objs    []ObjectSnapshot
	engines []core.EngineImage
	outbox  map[uint64]ids.ObjectID
	rows    map[string]string
	acks    []string
	unborn  int
}

// TestRecoverWithUnbornProcess: an Assert and an Ē bundle land before the
// Create of the cluster they name, so the cluster's process exists
// unborn. The site checkpoints and crashes — or crashes with the frames
// in the WAL only — recovers, and then receives the Create. Heap, engine
// images, retained frames and the acknowledgements sent must equal
// those of the run that never crashed: the unborn process is durable
// state like any other, and its birth replays exactly.
//
// A second cluster is named by a reference transfer and its Create is
// lost for good. All that is left of it is the early holder — one object
// and one unborn process, nothing parked beside them — which crosses the
// crash like the rest and is never reclaimed: nothing can prove garbage
// a cluster whose creator may still hold it.
func TestRecoverWithUnbornProcess(t *testing.T) {
	creator := ids.ClusterID{Site: 2, Seq: 1, Root: true}
	holder := ids.ClusterID{Site: 2, Seq: 8}
	dropper := ids.ClusterID{Site: 2, Seq: 9}
	ref := remoteMinted(1)
	lost := remoteMinted(2)
	carried := heap.Ref{Obj: ids.ObjectID{Site: 2, Seq: 30}, Cluster: ids.ClusterID{Site: 2, Seq: 30}}
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
		s.handleNet(2, wire.RefTransfer{FromCluster: holder, IntroSeq: 4, ToObj: lost.Obj, ToCluster: lost.Cluster, Target: carried, Seq: 2})
		if got := s.Depths().PendingDeliveries; got != 2 {
			t.Fatalf("unborn gauge = %d before the creation, want 2", got)
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
			if got := s.Depths().PendingDeliveries; got != 2 {
				t.Fatalf("unborn gauge = %d after recovery, want 2", got)
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
		// The lost creation's leftovers: the holder survives collection and
		// refresh (the oracle's safety, asserted directly: package oracle
		// imports this one), and the only records kept on its account are
		// its unborn process and its edge's assert awaiting an ack.
		if _, err := s.Collect(); err != nil {
			t.Fatal(err)
		}
		if err := s.Refresh(); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(0); err != nil {
			t.Fatal(err)
		}
		if !s.HasObject(lost.Obj) || s.ClusterRemoved(lost.Cluster) {
			t.Fatal("the early holder of the lost creation was reclaimed")
		}
		if d, want := s.Depths(), (Depths{Outbox: 1, AssertRows: 1, PendingDeliveries: 1}); d != want {
			t.Fatalf("retained state %+v, want %+v", d, want)
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
		st.rows, _ = engineRowsTo(t, s, 2)
		st.unborn = s.Depths().PendingDeliveries
		return st
	}
	for _, width := range []int{1, 3} {
		want := run(t, width, uncrashed)
		if want.unborn != 1 || len(want.outbox) != 1 || len(want.acks) == 0 {
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
			if !reflect.DeepEqual(got.rows, want.rows) {
				t.Errorf("width %d, %s: retained asserts and bundles %v, uncrashed %v", width, name, got.rows, want.rows)
			}
			if !reflect.DeepEqual(got.acks, want.acks) {
				t.Errorf("width %d, %s: acks %v, uncrashed %v", width, name, got.acks, want.acks)
			}
			if got.unborn != 1 {
				t.Errorf("width %d, %s: unborn gauge = %d after birth, want the lost creation's holder alone", width, name, got.unborn)
			}
		}
	}
}

// The cast of TestEarlyTransferCommutes: the holder whose creation message
// is late (site 2 minted it on site 1's behalf), its creator, the remote
// references that travel, and the remote destinations the holder forwards
// them to.
var (
	earlyHolder  = remoteMinted(1)
	earlyCreator = ids.ClusterID{Site: 2, Seq: 1, Root: true}
	earlyTargets = []heap.Ref{
		{Obj: ids.ObjectID{Site: 3, Seq: 100}, Cluster: ids.ClusterID{Site: 3, Seq: 10}},
		{Obj: ids.ObjectID{Site: 3, Seq: 101}, Cluster: ids.ClusterID{Site: 3, Seq: 11}},
		{Obj: ids.ObjectID{Site: 2, Seq: 100}, Cluster: ids.ClusterID{Site: 2, Seq: 10}},
	}
	earlyDests = []heap.Ref{
		{Obj: ids.ObjectID{Site: 3, Seq: 50}, Cluster: ids.ClusterID{Site: 3, Seq: 50}},
		{Obj: ids.ObjectID{Site: 2, Seq: 51}, Cluster: ids.ClusterID{Site: 2, Seq: 51}},
	}
)

// earlyCreate is the holder's creation message: sequence 1 of site 2's
// mutator stream, so every transfer site 2 sends is behind it.
var earlyCreate = wire.Create{Creator: earlyCreator, Stamp: 3, Obj: earlyHolder.Obj, Cluster: earlyHolder.Cluster, Seq: 1}

// genEarlyTransfers draws one program about the early holder: reference
// transfers to it from two sites (tracked, some duplicated), a transfer
// of its own reference to a local object, and local SendRef / AddRef /
// DropRefs on it. The creation is not a step: the runs differ only in
// where they put it. local is an object under site 1's root. The first
// step is always a transfer — before it the race run has no holder to
// operate on.
func genEarlyTransfers(seed int64, local heap.Ref) []func(*Site) error {
	rng := rand.New(rand.NewSource(seed))
	var steps []func(*Site) error
	var slots []heap.Ref                   // what the holder holds, as the program models it
	streams := map[ids.SiteID]uint64{2: 1} // the creation took site 2's first sequence
	intros := map[ids.ClusterID]uint64{}   // forwarding seqs, per introducer
	var delivered []func(*Site) error      // transfers already in the program, for duplicates
	xfer := func(to, target heap.Ref) {
		from := ids.SiteID(2 + rng.Intn(2))
		intro := ids.ClusterID{Site: from, Seq: 5}
		streams[from]++
		intros[intro]++
		m := wire.RefTransfer{
			FromCluster: intro, IntroSeq: intros[intro], ToObj: to.Obj, ToCluster: to.Cluster,
			Target: target, Seq: streams[from],
		}
		step := func(s *Site) error { s.handleNet(from, m); return nil }
		steps, delivered = append(steps, step), append(delivered, step)
	}
	held := func() heap.Ref { return slots[rng.Intn(len(slots))] }
	travels := func() heap.Ref {
		switch n := rng.Intn(len(earlyTargets) + 2); {
		case n < len(earlyTargets):
			return earlyTargets[n]
		case n == len(earlyTargets):
			return local
		}
		return earlyHolder // its own reference, sent back to it
	}
	for n := 1 + rng.Intn(30); n > 0; n-- {
		switch k := rng.Intn(10); {
		case len(slots) == 0 || k < 3:
			x := travels()
			slots = append(slots, x)
			xfer(earlyHolder, x)
		case k == 3:
			xfer(local, earlyHolder) // the late cluster as a local target
		case k == 4:
			steps = append(steps, delivered[rng.Intn(len(delivered))])
		case k == 5:
			x := held()
			slots = append(slots, x)
			steps = append(steps, func(s *Site) error {
				_, err := s.Apply(wire.OpRecord{Kind: wire.OpAddRef, Holder: earlyHolder.Obj, Target: x})
				return err
			})
		case k == 6:
			x := held()
			keep := slots[:0:0]
			for _, sl := range slots {
				if sl.Obj != x.Obj {
					keep = append(keep, sl)
				}
			}
			slots = keep
			steps = append(steps, func(s *Site) error { return s.DropRefs(earlyHolder.Obj, x) })
		default:
			x := held()
			if rng.Intn(4) == 0 {
				x = earlyHolder // sending one's own reference is always legal
			}
			to := local
			if d := rng.Intn(len(earlyDests) + 1); d < len(earlyDests) {
				to = earlyDests[d]
			}
			steps = append(steps, func(s *Site) error { return s.SendRef(earlyHolder.Obj, to, x) })
		}
	}
	return steps
}

// earlyTransferOutcome is everything one run leaves behind that the
// other must reproduce.
type earlyTransferOutcome struct {
	root     ids.ObjectID
	objs     []ObjectSnapshot
	engines  []core.EngineImage
	sent     map[ids.SiteID][]string // every mutator frame, assert and Ē bundle, per peer in send order
	gossip   map[string]string       // what the closing refresh round's propagations teach each edge's receiver
	acked    map[string]uint64       // last cumulative watermark heard, per peer and stream
	trackers []string
	errs     []string
	depths   Depths
}

// runEarlyTransfers plays the program on a fresh durable site with the
// holder's creation delivered before step createAt (0: first — the
// specification; len(steps): last).
func runEarlyTransfers(t *testing.T, seed int64, width, createAt int) (earlyTransferOutcome, int) {
	t.Helper()
	out := earlyTransferOutcome{sent: map[ids.SiteID][]string{}, acked: map[string]uint64{}, gossip: map[string]string{}}
	folds := map[string]*core.Propagation{}
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	for _, peer := range []ids.SiteID{2, 3} {
		peer := peer
		net.Register(peer, func(_ ids.SiteID, p netsim.Payload) {
			frames := []netsim.Payload{p}
			if env, ok := p.(wire.Envelope); ok {
				frames = env.Frames
			}
			for _, f := range frames {
				switch m := f.(type) {
				case wire.FrameAck:
					out.acked[fmt.Sprintf("%v %v", peer, m.Stream)] = m.Seq
				case wire.Propagate:
					edge := fmt.Sprintf("%v>%v", m.From, m.To)
					if folds[edge] == nil {
						folds[edge] = &core.Propagation{}
					}
					foldPropagation(folds[edge], m.To, m.M)
				default:
					out.sent[peer] = append(out.sent[peer], fmt.Sprintf("%+v", m))
				}
			}
		})
	}
	p, err := OpenPersist(t.TempDir(), nosyncPersist)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s, err := RecoverSharded(1, net, DefaultOptions(), p, width)
	if err != nil {
		t.Fatal(err)
	}
	local, err := s.NewLocal(s.Root().Obj)
	if err != nil {
		t.Fatal(err)
	}
	steps := genEarlyTransfers(seed, local)
	if createAt > len(steps) {
		createAt = len(steps)
	}
	flush := func() {
		if _, err := net.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i <= len(steps); i++ {
		if i == createAt {
			if i > 0 {
				// One unborn process at most: none yet if all the holder was
				// sent so far is its own reference (no edge, no mention).
				if s.ClusterRemoved(earlyHolder.Cluster) || !s.HasObject(earlyHolder.Obj) || s.Depths().PendingDeliveries > 1 {
					t.Fatalf("seed %d: before its creation the early holder is not an object and at most one unborn process: %+v", seed, s.Depths())
				}
			}
			s.handleNet(2, earlyCreate)
			flush()
		}
		if i < len(steps) {
			if err := steps[i](s); err != nil {
				out.errs = append(out.errs, fmt.Sprintf("step %d: %v", i, err))
			}
			flush()
		}
	}
	// An unborn process reaches no verdict, so it spreads none: the
	// propagations a born holder sends mid-program are the one thing the
	// race run lacks. They are gossip, idempotent by merge, and they set
	// what later propagations leave out: a propagation carries only what
	// its edge has not carried. What the runs must agree on is what the
	// closing round teaches each edge's receiver, the fold of every
	// propagation it sends along the edge: the state they end in. The
	// round ships in full, so no earlier gossip shows in the fold.
	clear(folds)
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	flush()
	for edge, m := range folds {
		out.gossip[edge] = fmt.Sprintf("%+v", *m)
	}
	out.root, out.objs = s.Snapshot()
	for _, r := range s.shards {
		r.mu.Lock()
		img, err := r.engine.Export()
		r.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		out.engines = append(out.engines, img)
	}
	s.st.mu.Lock()
	for k, tr := range s.st.recv {
		out.trackers = append(out.trackers, fmt.Sprintf("%v %v: %d +%d", k.peer, k.kind, tr.watermark, len(tr.pending)))
	}
	s.st.mu.Unlock()
	sort.Strings(out.trackers)
	out.depths = s.Depths()
	return out, len(steps)
}

// foldPropagation merges m into acc the way its receiver to merges it
// into its log: clocks and stamps by per-entry merge, the sender's hint
// columns replaced by the latest word, relayed hint columns unioned, and
// the receiver's own row, which it discards, left out.
func foldPropagation(acc *core.Propagation, to ids.ClusterID, m core.Propagation) {
	acc.Clock = max(acc.Clock, m.Clock)
	acc.Auth = mergeInto(acc.Auth, m.Auth)
	acc.HintCols = m.HintCols
	for q, r := range m.Rows {
		if q == to {
			continue
		}
		if acc.Rows == nil {
			acc.Rows = map[ids.ClusterID]core.RowGossip{}
		}
		g := acc.Rows[q]
		g.Auth = mergeInto(g.Auth, r.Auth)
		cols := ids.NewClusterSet(g.HintCols...)
		for _, c := range r.HintCols {
			cols.Add(c)
		}
		g.HintCols = cols.Sorted()
		acc.Rows[q] = g
	}
	for x, ob := range m.OBs {
		if acc.OBs == nil {
			acc.OBs = map[ids.ClusterID]core.OBGossip{}
		}
		g := acc.OBs[x]
		g.Auth, g.Hints = mergeInto(g.Auth, ob.Auth), mergeInto(g.Hints, ob.Hints)
		acc.OBs[x] = g
	}
}

// mergeInto merges v into acc, which it allocates on first use.
func mergeInto(acc, v vclock.Vector) vclock.Vector {
	if acc == nil {
		acc = vclock.NewVector()
	}
	acc.MergeAll(v)
	return acc
}

// TestEarlyTransferCommutes is the specification as the oracle, one level
// above internal/core's TestEarlyFramesCommute: "deliver the Create first"
// is what the site must behave like, and building the holder from the
// first transfer that names it is correct because everything that happens
// to an early holder commutes with its creation. For each seeded program
// the runs that see the creation last, or somewhere in the middle, must
// leave what the run that sees it first leaves: heap, logs and clocks
// (the engine images), frames sent, settlements.
func TestEarlyTransferCommutes(t *testing.T) {
	var long, forwarded int
	for seed := int64(1); seed <= 200; seed++ {
		width := 1 + 2*int(seed%2)
		spec, n := runEarlyTransfers(t, seed, width, 0)
		if len(spec.errs) > 0 {
			t.Fatalf("seed %d: the specification run refused a step: %v", seed, spec.errs)
		}
		if spec.depths.PendingDeliveries != 0 {
			t.Fatalf("seed %d: specification run: %+v", seed, spec.depths)
		}
		if n > 12 {
			long++
		}
		if strings.Contains(fmt.Sprint(spec.sent), "ToObj:") { // a RefTransfer the holder sent
			forwarded++
		}
		for _, createAt := range []int{n, 1 + int(seed)%n} {
			race, _ := runEarlyTransfers(t, seed, width, createAt)
			if !reflect.DeepEqual(race.errs, spec.errs) {
				t.Fatalf("seed %d, creation before step %d of %d: refused steps %v", seed, createAt, n, race.errs)
			}
			if race.root != spec.root || !reflect.DeepEqual(race.objs, spec.objs) {
				t.Fatalf("seed %d, creation before step %d of %d: heaps differ\nrace: %+v\nspecification: %+v", seed, createAt, n, race.objs, spec.objs)
			}
			if !reflect.DeepEqual(race.engines, spec.engines) {
				t.Fatalf("seed %d, creation before step %d of %d: engine images differ\nrace: %+v\nspecification: %+v", seed, createAt, n, race.engines, spec.engines)
			}
			if !reflect.DeepEqual(race.sent, spec.sent) {
				t.Fatalf("seed %d, creation before step %d of %d: frames sent differ\nrace: %q\nspecification: %q", seed, createAt, n, race.sent, spec.sent)
			}
			if !reflect.DeepEqual(race.gossip, spec.gossip) {
				t.Fatalf("seed %d, creation before step %d of %d: what the closing propagations teach differs\nrace: %q\nspecification: %q", seed, createAt, n, race.gossip, spec.gossip)
			}
			if !reflect.DeepEqual(race.acked, spec.acked) || !reflect.DeepEqual(race.trackers, spec.trackers) {
				t.Fatalf("seed %d, creation before step %d of %d: settlements differ\nrace: %v %v\nspecification: %v %v", seed, createAt, n, race.acked, race.trackers, spec.acked, spec.trackers)
			}
			if race.depths != spec.depths {
				t.Fatalf("seed %d, creation before step %d of %d: depths %+v, specification %+v", seed, createAt, n, race.depths, spec.depths)
			}
		}
	}
	if long < 50 || forwarded < 50 {
		t.Fatalf("the generator degenerated: %d programs over 12 steps, %d in which the early holder forwarded a reference", long, forwarded)
	}
}
