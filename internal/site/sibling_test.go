package site

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/wire"
)

// siblingStep is one step of a TestSiblingFramesCommute program. Objects
// are named by birth order (0 is the root), so one program drives every
// run whatever identities the run mints.
type siblingStep struct {
	kind               wire.OpKind // OpNewLocal, OpSendRef, OpAddRef, OpDropRefs, OpCollect or OpRefresh
	holder, to, target int
}

// genSiblingProgram draws a mutator program over one site and the model
// of the heap it must leave: model[i] is what object i holds. Holders
// are drawn among the objects the model says are reachable (nothing may
// reclaim those), and a reference is only copied by an object holding
// it or denoting itself, so every step is legal at every quiescent
// point. Creations under the root spread round-robin, which is what
// makes the references cross shards.
func genSiblingProgram(seed int64) (steps []siblingStep, model [][]int) {
	rng := rand.New(rand.NewSource(seed))
	model = [][]int{nil}
	for n := 12 + rng.Intn(28); n > 0; n-- {
		live := siblingReachable(model)
		holder := live[rng.Intn(len(live))]
		held := model[holder]
		switch k := rng.Intn(12); {
		case k < 3 || len(held) == 0:
			if rng.Intn(3) > 0 {
				holder = 0
			}
			steps = append(steps, siblingStep{kind: wire.OpNewLocal, holder: holder})
			model[holder] = append(model[holder], len(model))
			model = append(model, nil)
		case k < 7:
			target := held[rng.Intn(len(held))]
			if holder != 0 && rng.Intn(4) == 0 {
				target = holder // sending one's own reference is always legal
			}
			to := live[rng.Intn(len(live))]
			steps = append(steps, siblingStep{kind: wire.OpSendRef, holder: holder, to: to, target: target})
			model[to] = append(model[to], target)
		case k == 7:
			target := held[rng.Intn(len(held))]
			steps = append(steps, siblingStep{kind: wire.OpAddRef, holder: holder, target: target})
			model[holder] = append(model[holder], target)
		case k < 10:
			target := held[rng.Intn(len(held))]
			steps = append(steps, siblingStep{kind: wire.OpDropRefs, holder: holder, target: target})
			keep := held[:0:0]
			for _, x := range held {
				if x != target {
					keep = append(keep, x)
				}
			}
			model[holder] = keep
		case k == 10:
			steps = append(steps, siblingStep{kind: wire.OpCollect})
		default:
			steps = append(steps, siblingStep{kind: wire.OpRefresh})
		}
	}
	return steps, model
}

// siblingReachable lists the objects the model reaches from the root,
// in birth order.
func siblingReachable(model [][]int) []int {
	seen := map[int]bool{0: true}
	for work := []int{0}; len(work) > 0; work = work[1:] {
		for _, x := range model[work[0]] {
			if !seen[x] {
				seen[x] = true
				work = append(work, x)
			}
		}
	}
	live := make([]int, 0, len(seen))
	for x := range seen {
		live = append(live, x)
	}
	sort.Ints(live)
	return live
}

// siblingRun plays a program on one site, delivering the own-site
// frames each lock hold emitted by the run's own discipline.
type siblingRun struct {
	t       *testing.T
	s       *Site
	deliver func(*siblingRun, []netsim.Payload)
	rng     *rand.Rand
	refs    []heap.Ref // by birth order
	// frames counts the own-site frames delivered; deepest is the most
	// that were in flight at once.
	frames, deepest int
}

// unlock is Site.unlock with the run's discipline in place of cascade.
func (h *siblingRun) unlock(r *shard) {
	work := r.handoff
	r.handoff = nil
	r.mu.Unlock()
	h.deliver(h, work)
}

func (h *siblingRun) inFlight(n int) {
	if n > h.deepest {
		h.deepest = n
	}
}

// deliverFIFO is the discipline the site used to implement and now only
// behaves like: one queue per destination shard, each drained in
// arrival order, the shards visited in index order until all are empty.
// An acknowledgement is queued on every shard, each copy retiring that
// shard's rows.
func deliverFIFO(h *siblingRun, work []netsim.Payload) {
	s := h.s
	queues := make([][]netsim.Payload, s.n)
	depth := 0
	push := func(frames []netsim.Payload) {
		for _, f := range frames {
			lo, hi := 0, s.n
			if _, ok := f.(wire.FrameAck); !ok {
				lo = s.frameShard(f)
				hi = lo + 1
			}
			for i := lo; i < hi; i++ {
				queues[i] = append(queues[i], f)
				depth++
			}
		}
		h.inFlight(depth)
	}
	push(work)
	for depth > 0 {
		for i, r := range s.shards {
			for len(queues[i]) > 0 {
				f := queues[i][0]
				queues[i] = queues[i][1:]
				depth--
				h.frames++
				if m, ok := f.(wire.FrameAck); ok {
					r.mu.Lock()
					r.applyAckLocked(s.id, m, false)
					r.mu.Unlock()
					continue
				}
				push(r.handle(s.id, f, true))
			}
		}
	}
}

// deliverEmitted is what ships.
func deliverEmitted(h *siblingRun, work []netsim.Payload) {
	h.frames += len(work)
	h.inFlight(len(work))
	h.s.cascade(work)
}

// deliverShuffled delivers the frames in flight in a seeded random
// order through the site's router.
func deliverShuffled(h *siblingRun, work []netsim.Payload) {
	for len(work) > 0 {
		h.inFlight(len(work))
		i := h.rng.Intn(len(work))
		f := work[i]
		work = append(work[:i], work[i+1:]...)
		h.frames++
		work = append(work, h.s.route(h.s.id, f)...)
	}
}

func (h *siblingRun) commit(op wire.OpRecord) heap.Ref {
	h.t.Helper()
	r := h.s.shardFor(op.Holder)
	var ref [1]heap.Ref
	r.mu.Lock()
	err := r.commitLocked([]wire.BatchOp{{Op: op}}, ref[:])
	h.unlock(r)
	if err != nil {
		h.t.Fatalf("%v: %v", op.Kind, err)
	}
	return ref[0]
}

func (h *siblingRun) collect() {
	h.t.Helper()
	for _, r := range h.s.shards {
		r.mu.Lock()
		_, err := r.collectShardLocked()
		h.unlock(r)
		if err != nil {
			h.t.Fatal(err)
		}
	}
}

// refresh is Site.Refresh.
func (h *siblingRun) refresh() {
	h.t.Helper()
	for _, r := range h.s.shards {
		r.mu.Lock()
		err := r.refreshShardLocked()
		h.unlock(r)
		if err != nil {
			h.t.Fatal(err)
		}
	}
}

func (h *siblingRun) step(st siblingStep) {
	h.t.Helper()
	switch st.kind {
	case wire.OpNewLocal:
		h.refs = append(h.refs, h.commit(wire.OpRecord{Kind: wire.OpNewLocal, Holder: h.refs[st.holder].Obj}))
	case wire.OpSendRef:
		h.commit(wire.OpRecord{Kind: wire.OpSendRef, Holder: h.refs[st.holder].Obj, To: h.refs[st.to], Target: h.refs[st.target]})
	case wire.OpAddRef, wire.OpDropRefs:
		h.commit(wire.OpRecord{Kind: st.kind, Holder: h.refs[st.holder].Obj, Target: h.refs[st.target]})
	case wire.OpCollect:
		h.collect()
	case wire.OpRefresh:
		h.refresh()
	}
}

// siblingOutcome is what a run leaves that is observable from outside
// the site. Stamps and slot order depend on arrival order, between
// siblings as between sites, so logs and slot positions are not in it.
type siblingOutcome struct {
	objs              map[ids.ObjectID][]string // every object's slots, sorted
	removed           []ids.ClusterID
	depths            Depths
	garbage, dangling int // the reachability oracle's verdict
}

// runSiblingProgram plays the program on a fresh site of the given
// width and settles it: collection and refresh rounds until the heap is
// what the model reaches and every retained row is acknowledged.
func runSiblingProgram(t *testing.T, steps []siblingStep, model [][]int, width int, durable bool, deliver func(*siblingRun, []netsim.Payload), rng *rand.Rand) (siblingOutcome, *siblingRun) {
	t.Helper()
	net := netsim.NewSim(netsim.Faults{Seed: 1})
	var s *Site
	if durable {
		p, err := OpenPersist(t.TempDir(), nosyncPersist)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if s, err = RecoverSharded(1, net, DefaultOptions(), p, width); err != nil {
			t.Fatal(err)
		}
	} else {
		s = NewSharded(1, net, DefaultOptions(), width)
	}
	h := &siblingRun{t: t, s: s, deliver: deliver, rng: rng, refs: []heap.Ref{s.Root()}}
	for _, st := range steps {
		h.step(st)
	}
	live := siblingReachable(model)
	for round := 0; round < 12; round++ {
		h.collect()
		h.refresh()
		if s.NumObjects() == len(live) && s.Depths() == (Depths{}) {
			break
		}
	}

	out := siblingOutcome{objs: map[ids.ObjectID][]string{}, depths: s.Depths()}
	root, objs := s.Snapshot()
	slotsOf := make(map[ids.ObjectID][]heap.Ref, len(objs))
	for _, o := range objs {
		slotsOf[o.ID] = o.Slots
	}
	reached := map[ids.ObjectID]bool{root: true}
	for work := []ids.ObjectID{root}; len(work) > 0; work = work[1:] {
		for _, ref := range slotsOf[work[0]] {
			if ref != heap.NilRef && !reached[ref.Obj] {
				reached[ref.Obj] = true
				work = append(work, ref.Obj)
			}
		}
	}
	for _, o := range objs {
		slots := make([]string, len(o.Slots))
		for i, ref := range o.Slots {
			slots[i] = fmt.Sprint(ref)
		}
		sort.Strings(slots)
		out.objs[o.ID] = slots
		if !reached[o.ID] {
			out.garbage++
		}
		delete(reached, o.ID)
	}
	out.dangling = len(reached) // reached, yet not an object
	for _, ref := range h.refs[1:] {
		if s.ClusterRemoved(ref.Cluster) {
			out.removed = append(out.removed, ref.Cluster)
		}
	}
	return out, h
}

// TestSiblingFramesCommute is the deleted handoff queue as the oracle.
// "Deliver a sibling's frames FIFO per destination shard" is what the
// site must behave like; it needs no queue to do so, because everything
// a shard sends a sibling commutes: a process and its object exist from
// their first mention, a tracked frame settles by its sequence, control
// frames merge by per-edge stamp. For each seeded program the run that
// delivers in emission order (what ships) and the runs that deliver in
// seeded random orders must leave, at quiescence, what the FIFO run
// leaves: the objects, their slots, the removed clusters, no retained
// row and a clean oracle verdict — and that must be the model's heap.
func TestSiblingFramesCommute(t *testing.T) {
	const shuffles = 20
	var frames, raced int
	for seed := int64(1); seed <= 100; seed++ {
		width, durable := 2+2*int(seed%2), seed%4 < 2
		steps, model := genSiblingProgram(seed)
		name := fmt.Sprintf("seed %d (width %d, durable %v)", seed, width, durable)

		spec, h := runSiblingProgram(t, steps, model, width, durable, deliverFIFO, nil)
		if spec.garbage != 0 || spec.dangling != 0 || spec.depths != (Depths{}) {
			t.Fatalf("%s: the specification run is not clean: %d garbage, %d dangling, %+v", name, spec.garbage, spec.dangling, spec.depths)
		}
		live := siblingReachable(model)
		if len(spec.objs) != len(live) || len(spec.removed) != len(model)-len(live) {
			t.Fatalf("%s: the specification run leaves %d objects and %d removed clusters, the model %d and %d", name, len(spec.objs), len(spec.removed), len(live), len(model)-len(live))
		}
		for _, x := range live {
			var want []string
			for _, y := range model[x] {
				want = append(want, fmt.Sprint(h.refs[y]))
			}
			var got []string
			for _, sl := range spec.objs[h.refs[x].Obj] {
				if sl != fmt.Sprint(heap.NilRef) {
					got = append(got, sl)
				}
			}
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: object %d holds %v, the model says %v", name, x, got, want)
			}
		}
		frames += h.frames
		if h.deepest > 1 {
			raced++
		}

		check := func(order string, got siblingOutcome) {
			t.Helper()
			if !reflect.DeepEqual(got, spec) {
				t.Fatalf("%s, %s: outcomes differ\n%s: %+v\nFIFO:  %+v", name, order, order, got, spec)
			}
		}
		got, _ := runSiblingProgram(t, steps, model, width, durable, deliverEmitted, nil)
		check("emission order", got)
		for i := int64(0); i < shuffles; i++ {
			got, _ := runSiblingProgram(t, steps, model, width, durable, deliverShuffled, rand.New(rand.NewSource(seed<<8|i)))
			check(fmt.Sprintf("shuffle %d", i), got)
		}
	}
	if frames < 3000 || raced < 90 {
		t.Fatalf("the generator degenerated: %d own-site frames in all, %d programs with two or more in flight at once", frames, raced)
	}
}
