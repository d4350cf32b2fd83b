package site

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"causalgc/internal/core"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/wire"
)

// The receiver half of exactly-once mutator delivery is one rule: a
// tracked Create or RefTransfer applies iff its stream sequence is
// recorded at that delivery (shard.applyFrameLocked). The table the rule
// replaced — an unbounded set of (introducer, forwarding-seq) pairs — is
// the specification, and lives on here as the oracle.

// trackedDelivery is one step of a trackedProgram: a frame from one of
// the two sender sites.
type trackedDelivery struct {
	from ids.SiteID
	p    netsim.Payload
}

// trackedProgram is one seeded schedule of tracked mutator frames toward
// site 1: what the two senders ever drew (frames, by sender and stream
// sequence) and the order site 1 hears it in — out of order and with
// duplicates.
type trackedProgram struct {
	frames map[ids.SiteID][]netsim.Payload // index = sequence-1
	order  []trackedDelivery
}

var trackedSenders = []ids.SiteID{2, 3}

// trackedTarget is the reference transfer (sender, seq) carries: unique
// per transfer, so a slot names the transfer that put it there.
func trackedTarget(sender ids.SiteID, seq uint64) heap.Ref {
	return heap.Ref{
		Obj:     ids.ObjectID{Site: sender, Seq: 1000 + seq},
		Cluster: ids.ClusterID{Site: sender, Seq: 10 + seq%4},
	}
}

func genTrackedProgram(seed int64, root heap.Ref) trackedProgram {
	rng := rand.New(rand.NewSource(seed))
	prog := trackedProgram{frames: map[ids.SiteID][]netsim.Payload{}}
	// Every creation any sender will make, so a transfer can name a
	// holder whose creation is later in its own stream or in the other's.
	created := map[ids.SiteID]uint64{}
	for _, from := range trackedSenders {
		created[from] = uint64(1 + rng.Intn(4))
	}
	holder := func() heap.Ref {
		if rng.Intn(4) == 0 {
			return root
		}
		from := trackedSenders[rng.Intn(len(trackedSenders))]
		return mintedBy(from, 1+uint64(rng.Intn(int(created[from]))))
	}
	for _, from := range trackedSenders {
		creator := ids.ClusterID{Site: from, Seq: 1, Root: true}
		n, made := 4+rng.Intn(14), uint64(0)
		for seq := uint64(1); seq <= uint64(n); seq++ {
			if made < created[from] && (rng.Intn(3) == 0 || uint64(n)-seq < created[from]-made) {
				made++
				ref := mintedBy(from, made)
				prog.frames[from] = append(prog.frames[from], wire.Create{
					Creator: creator, Stamp: seq, Obj: ref.Obj, Cluster: ref.Cluster, Seq: seq,
				})
				continue
			}
			to := holder()
			prog.frames[from] = append(prog.frames[from], wire.RefTransfer{
				FromCluster: creator, IntroSeq: seq, ToObj: to.Obj, ToCluster: to.Cluster,
				Target: trackedTarget(from, seq), Seq: seq,
			})
		}
	}
	// Delivery order: a shuffle of everything, with duplicates mixed in.
	for _, from := range trackedSenders {
		for _, f := range prog.frames[from] {
			for k := 1 + rng.Intn(5)/3; k > 0; k-- {
				prog.order = append(prog.order, trackedDelivery{from, f})
			}
		}
	}
	rng.Shuffle(len(prog.order), func(i, j int) { prog.order[i], prog.order[j] = prog.order[j], prog.order[i] })
	return prog
}

// trackedOracle is the specification: an unbounded set of the (sender,
// sequence) pairs delivered so far — for a transfer the same thing as
// its (introducer, forwarding-seq) pair, the program draws them equal.
// A delivery applies iff its pair is new.
type trackedOracle struct {
	seen    map[ids.SiteID]map[uint64]bool
	applied map[ids.SiteID]map[uint64]bool
}

func newTrackedOracle() *trackedOracle {
	o := &trackedOracle{seen: map[ids.SiteID]map[uint64]bool{}, applied: map[ids.SiteID]map[uint64]bool{}}
	for _, from := range trackedSenders {
		o.seen[from], o.applied[from] = map[uint64]bool{}, map[uint64]bool{}
	}
	return o
}

func (o *trackedOracle) deliver(d trackedDelivery) {
	var seq uint64
	switch m := d.p.(type) {
	case wire.Create:
		seq = m.Seq
	case wire.RefTransfer:
		seq = m.Seq
	}
	if o.seen[d.from][seq] {
		return
	}
	o.seen[d.from][seq] = true
	o.applied[d.from][seq] = true
}

// tracker is the receive tracker the oracle implies for one sender:
// everything seen is settled.
func (o *trackedOracle) tracker(from ids.SiteID) (watermark uint64, pending []uint64) {
	for o.seen[from][watermark+1] {
		watermark++
	}
	for seq := range o.seen[from] {
		if seq > watermark {
			pending = append(pending, seq)
		}
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
	return watermark, pending
}

// trackedState is what two sites that heard the same deliveries must
// agree on: the heap and every mutator-stream receive tracker.
type trackedState struct {
	root     ids.ObjectID
	objs     []ObjectSnapshot
	trackers map[ids.SiteID]string
}

func captureTracked(s *Site) trackedState {
	st := trackedState{trackers: map[ids.SiteID]string{}}
	st.root, st.objs = s.Snapshot()
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	for _, from := range trackedSenders {
		t := s.st.recv[streamKey{peer: from, kind: core.StreamMut}]
		if t == nil {
			continue
		}
		var pending []uint64
		for seq := range t.pending {
			pending = append(pending, seq)
		}
		sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
		st.trackers[from] = fmt.Sprintf("%d %v", t.watermark, pending)
	}
	return st
}

// checkTrackedAgainstOracle: every applied pair reached the heap exactly
// once, no other pair reached it at all, and the trackers are the ones
// the oracle implies.
func checkTrackedAgainstOracle(t *testing.T, s *Site, prog trackedProgram, o *trackedOracle) {
	t.Helper()
	st := captureTracked(s)
	slots := map[ids.ObjectID]int{}
	exists := map[ids.ObjectID]bool{}
	for _, obj := range st.objs {
		exists[obj.ID] = true
		for _, sl := range obj.Slots {
			slots[sl.Obj]++
		}
	}
	wantObj := map[ids.ObjectID]bool{}
	for _, from := range trackedSenders {
		for i, f := range prog.frames[from] {
			seq := uint64(i + 1)
			applied := o.applied[from][seq]
			switch m := f.(type) {
			case wire.Create:
				wantObj[m.Obj] = wantObj[m.Obj] || applied
			case wire.RefTransfer:
				wantObj[m.ToObj] = wantObj[m.ToObj] || applied
				want := 0
				if applied {
					want = 1
				}
				if got := slots[m.Target.Obj]; got != want {
					t.Errorf("transfer (%v, %d) reached the heap %d times, the oracle says %d", m.FromCluster, m.IntroSeq, got, want)
				}
			}
		}
		w, pending := o.tracker(from)
		want := fmt.Sprintf("%d %v", w, pending)
		if _, any := st.trackers[from]; !any && w == 0 && len(pending) == 0 {
			continue // never heard from
		}
		if st.trackers[from] != want {
			t.Errorf("tracker of sender %v = %s, the oracle says %s", from, st.trackers[from], want)
		}
	}
	for obj, want := range wantObj {
		if obj != st.root && exists[obj] != want {
			t.Errorf("object %v exists = %v, the oracle says %v", obj, exists[obj], want)
		}
	}
}

// TestTrackedFrameAppliesOnce: seeded programs of tracked Create and
// RefTransfer deliveries — duplicated, out of order, transfers ahead of
// their holder's creation, some inside envelopes — run
// on a durable site that checkpoints (or not), crashes and recovers in
// the middle and hears re-sends afterwards, and on a site that never
// crashed. Each (introducer, seq) pair reaches the heap exactly once,
// checked against the unbounded set the stream rule replaced, and the
// recovered site equals the live one: heap and receive trackers, right
// after recovery and at the end.
func TestTrackedFrameAppliesOnce(t *testing.T) {
	t.Run("programs", trackedPrograms)
	t.Run("bound", trackedBeyondBound)
}

func trackedPrograms(t *testing.T) {
	sink := func(net *netsim.Sim) {
		for _, from := range trackedSenders {
			net.Register(from, func(ids.SiteID, netsim.Payload) {})
		}
	}
	for seed := int64(1); seed <= 240; seed++ {
		width := 1 + 2*int(seed%2)
		rng := rand.New(rand.NewSource(seed * 7919))
		liveNet, crashNet := netsim.NewSim(netsim.Faults{Seed: 1}), netsim.NewSim(netsim.Faults{Seed: 1})
		sink(liveNet)
		sink(crashNet)
		live := NewSharded(1, liveNet, DefaultOptions(), width)
		dir := t.TempDir()
		p, err := OpenPersist(dir, nosyncPersist)
		if err != nil {
			t.Fatal(err)
		}
		crashed, err := RecoverSharded(1, crashNet, DefaultOptions(), p, width)
		if err != nil {
			t.Fatal(err)
		}
		prog := genTrackedProgram(seed, live.Root())
		oracle := newTrackedOracle()
		// One delivery reaches both sites and the oracle; now and then two
		// consecutive frames of one sender travel in one envelope.
		deliver := func(ds ...trackedDelivery) {
			for _, d := range ds {
				oracle.deliver(d)
			}
			var p netsim.Payload = ds[0].p
			if len(ds) > 1 {
				p = wire.Envelope{Frames: []netsim.Payload{ds[0].p, ds[1].p}}
			}
			live.handleNet(ds[0].from, p)
			crashed.handleNet(ds[0].from, p)
		}
		play := func(order []trackedDelivery) {
			for i := 0; i < len(order); i++ {
				if i+1 < len(order) && order[i].from == order[i+1].from && rng.Intn(4) == 0 {
					deliver(order[i], order[i+1])
					i++
					continue
				}
				deliver(order[i])
			}
		}
		cut := rng.Intn(len(prog.order) + 1)
		mode := rng.Intn(3) // checkpoint at the crash, earlier, or never
		early := cut / 2
		if mode != 1 {
			early = cut
		}
		play(prog.order[:early])
		if mode != 2 {
			if err := crashed.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		play(prog.order[early:cut])
		if err := p.Close(); err != nil { // crash
			t.Fatal(err)
		}
		crashNet.Unregister(1)
		if p, err = OpenPersist(dir, nosyncPersist); err != nil {
			t.Fatal(err)
		}
		if crashed, err = RecoverSharded(1, crashNet, DefaultOptions(), p, width); err != nil {
			t.Fatal(err)
		}
		if err := live.Refresh(); err != nil { // recovery ends with one round
			t.Fatal(err)
		}
		if got, want := captureTracked(crashed), captureTracked(live); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (width %d, mode %d, cut %d): recovered site differs from the live one\ngot  %+v\nwant %+v", seed, width, mode, cut, got, want)
		}
		// After the restart the senders re-send some of what they already
		// sent, then the rest of the program arrives.
		var resent []trackedDelivery
		for _, d := range prog.order[:cut] {
			if rng.Intn(3) == 0 {
				resent = append(resent, d)
			}
		}
		play(resent)
		play(prog.order[cut:])
		if got, want := captureTracked(crashed), captureTracked(live); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (width %d, mode %d, cut %d): recovered site differs from the live one at the end\ngot  %+v\nwant %+v", seed, width, mode, cut, got, want)
		}
		checkTrackedAgainstOracle(t, crashed, prog, oracle)
		p.Close()
		if t.Failed() {
			t.Fatalf("seed %d (width %d, mode %d, cut %d)", seed, width, mode, cut)
		}
	}
}

// trackedBeyondBound is the bound case of TestTrackedFrameAppliesOnce:
// with maxRecvPending sequences already waiting above a gap, the next
// one is refused — neither applied nor acknowledged — and applies exactly
// once when the sender's retained row is re-sent after the gap has
// narrowed. The refusal is replay-exact: the recovered site equals the
// live one.
func trackedBeyondBound(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPersist(dir, nosyncPersist)
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	var acked uint64 // the last cumulative watermark site 2 heard
	net.Register(2, func(_ ids.SiteID, p netsim.Payload) {
		if ack, ok := p.(wire.FrameAck); ok && ack.Stream == core.StreamMut {
			acked = ack.Seq
		}
	})
	s, err := Recover(1, net, DefaultOptions(), p)
	if err != nil {
		t.Fatal(err)
	}
	intro := ids.ClusterID{Site: 2, Seq: 1, Root: true}
	transfer := func(seq uint64, to heap.Ref) wire.RefTransfer {
		return wire.RefTransfer{
			FromCluster: intro, IntroSeq: seq, ToObj: to.Obj, ToCluster: to.Cluster,
			Target: trackedTarget(2, seq), Seq: seq,
		}
	}
	slotsOf := func(s *Site, seq uint64) int {
		n := 0
		_, objs := s.Snapshot()
		for _, sl := range objs[0].Slots {
			if sl == trackedTarget(2, seq) {
				n++
			}
		}
		return n
	}
	// Sequence 1 is late; 2..maxRecvPending+1 fill the out-of-order set
	// (cheaply: their holder is another site's, so they settle as stale).
	nowhere := heap.Ref{Obj: ids.ObjectID{Site: 9, Seq: 1}, Cluster: ids.ClusterID{Site: 9, Seq: 1}}
	const last = maxRecvPending + 1
	var fill []netsim.Payload
	for seq := uint64(2); seq <= last; seq++ {
		if fill = append(fill, transfer(seq, nowhere)); len(fill) == 1024 || seq == last {
			s.handleNet(2, wire.Envelope{Frames: fill}) // one WAL record per 1024
			fill = nil
		}
	}
	over := transfer(last+1, s.Root())
	s.handleNet(2, over)
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := slotsOf(s, last+1); got != 0 {
		t.Fatalf("a refused transfer reached the heap %d times", got)
	}
	if acked != 0 {
		t.Fatalf("acknowledged up to %d with sequence 1 outstanding", acked)
	}
	if st := captureTracked(s); st.trackers[2] == "" || len(s.st.recv[streamKey{peer: 2, kind: core.StreamMut}].pending) != maxRecvPending {
		t.Fatalf("tracker does not hold exactly the bound: %.40s...", st.trackers[2])
	}
	s.handleNet(2, transfer(1, s.Root())) // the gap closes
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	if acked != last {
		t.Fatalf("acknowledged up to %d after the gap closed, want %d: the refused sequence must not be covered", acked, last)
	}
	s.handleNet(2, over) // the sender's retained row, re-sent
	s.handleNet(2, over) // and once more: a duplicate now
	if _, err := net.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := slotsOf(s, last+1); got != 1 {
		t.Fatalf("the re-sent transfer reached the heap %d times, want 1", got)
	}
	if acked != last+1 {
		t.Fatalf("acknowledged up to %d, want %d", acked, last+1)
	}
	want := captureTracked(s)
	if err := p.Close(); err != nil { // crash: everything is in the WAL
		t.Fatal(err)
	}
	net.Unregister(1)
	p2, err := OpenPersist(dir, nosyncPersist)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	s2, err := Recover(1, net, DefaultOptions(), p2)
	if err != nil {
		t.Fatal(err)
	}
	if got := captureTracked(s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered site differs from the live one: root holds %d slots, live %d; tracker %.40s vs %.40s",
			len(got.objs[0].Slots), len(want.objs[0].Slots), got.trackers[2], want.trackers[2])
	}
}
