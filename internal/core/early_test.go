package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"causalgc/internal/ids"
	"causalgc/internal/vclock"
)

// tape is a Sender that records every outgoing frame in full (fakeSender
// keeps only a propagation's endpoints), so two runs can be compared
// frame for frame.
type tape struct {
	fakeSender
	sent []string
}

func (tp *tape) SendDestroy(from, to ids.ClusterID, m DestroyMsg, seq uint64) uint64 {
	seq = tp.fakeSender.SendDestroy(from, to, m, seq)
	tp.sent = append(tp.sent, fmt.Sprintf("destroy %v>%v #%d %v", from, to, seq, m))
	return seq
}

func (tp *tape) SendAssert(from, to ids.ClusterID, m AssertMsg, seq uint64) uint64 {
	seq = tp.fakeSender.SendAssert(from, to, m, seq)
	tp.sent = append(tp.sent, fmt.Sprintf("assert %v>%v #%d %v", from, to, seq, m))
	return seq
}

func (tp *tape) SendPropagate(from, to ids.ClusterID, m Propagation) {
	tp.sent = append(tp.sent, fmt.Sprintf("propagate %v>%v %v", from, to, m))
}

// The cast of TestEarlyFramesCommute: the cluster whose creation message
// is late, its creator (an actual root on another site), three remote and
// two local clusters that hold, forward and drop references to it.
var (
	earlyT       = cA
	earlyCreator = ids.ClusterID{Site: 2, Seq: 1, Root: true}
	earlyRemotes = []ids.ClusterID{{Site: 2, Seq: 5}, {Site: 2, Seq: 6}, {Site: 3, Seq: 5}}
	earlyLocals  = []ids.ClusterID{cB, {Site: 1, Seq: 4}}
)

const earlyCreateStamp = 3

// earlyProgram is one seeded schedule of control traffic about earlyT.
// steps never includes the creation: the two runs differ only in where
// they put it.
type earlyProgram struct {
	steps []func(*Engine)
	// tracked lists the tracked frames steps deliver, in delivery order.
	tracked []settledFrame
}

type earlyHint struct {
	col, intro ids.ClusterID
	seq        uint64
}

// genEarlyProgram draws a program. Stamps come from per-source counters,
// like the clocks of the real sources: every Ē is newer than anything its
// source said before, the creation stamp included. A wellFormed program
// keeps the creator's live edge until its last step, so the run that
// sees the creation first cannot remove the cluster mid-program (no real
// execution re-asserts an edge to a cluster already proven garbage); an
// unrestricted one may drop it anywhere.
func genEarlyProgram(seed int64, wellFormed bool) earlyProgram {
	rng := rand.New(rand.NewSource(seed))
	var prog earlyProgram
	clk := map[ids.ClusterID]uint64{earlyCreator: earlyCreateStamp}
	streams := map[settledFrame]uint64{}
	live := map[ids.ClusterID]bool{}
	var pending []earlyHint

	track := func(from ids.ClusterID, s Stream) uint64 {
		k := settledFrame{peer: from.Site, stream: s}
		streams[k]++
		k.seq = streams[k]
		prog.tracked = append(prog.tracked, k)
		return k.seq
	}
	tick := func(q ids.ClusterID) uint64 { clk[q]++; return clk[q] }
	add := func(f func(*Engine)) { prog.steps = append(prog.steps, f) }
	// takeHints removes and returns the pending hints col could resolve
	// (all of them, or the first only).
	takeHints := func(col ids.ClusterID, all bool) []earlyHint {
		var out, keep []earlyHint
		for _, h := range pending {
			if h.col == col && (all || len(out) == 0) {
				out = append(out, h)
			} else {
				keep = append(keep, h)
			}
		}
		pending = keep
		return out
	}
	someone := func(not ids.ClusterID) ids.ClusterID {
		for {
			all := append(append([]ids.ClusterID{}, earlyRemotes...), earlyLocals...)
			if c := all[rng.Intn(len(all))]; c != not {
				return c
			}
		}
	}

	destroyFrom := func(q ids.ClusterID, withHint bool) {
		m := DestroyMsg{Auth: vclock.Vector{q: vclock.Eps(tick(q))}}
		if withHint {
			dest, seq := someone(q), tick(q)
			m.Hints = vclock.Vector{dest: vclock.At(seq)}
			pending = append(pending, earlyHint{dest, q, seq})
		}
		for _, h := range takeHints(q, true) {
			if m.Processed == nil {
				m.Processed = vclock.Vector{}
			}
			m.Processed.MergeEntry(h.intro, vclock.At(h.seq))
		}
		seq := track(q, StreamDestroy)
		delete(live, q)
		add(func(e *Engine) { e.HandleDestroyFrame(earlyT, q, copyBundle(m), seq, false) })
	}
	assertFrom := func(q ids.ClusterID, positive bool) {
		var m AssertMsg
		if hs := takeHints(q, false); len(hs) > 0 {
			m.Intro, m.IntroSeq = hs[0].intro, hs[0].seq
		} else if !positive {
			return // a negative assert exists only to expire an introduction
		}
		if positive {
			m.Stamp = tick(q)
			live[q] = true
		}
		seq := track(q, StreamAssert)
		add(func(e *Engine) { e.HandleAssertFrame(earlyT, q, m, seq) })
	}
	propagateFrom := func(q ids.ClusterID) {
		m := Propagation{Clock: tick(q), Auth: vclock.Vector{}}
		live[q] = true
		if rng.Intn(2) == 0 {
			m.Auth[someone(q)] = vclock.At(uint64(1 + rng.Intn(9)))
		}
		if rng.Intn(3) == 0 {
			m.HintCols = []ids.ClusterID{someone(q)}
		}
		if rng.Intn(3) == 0 {
			m.Rows = map[ids.ClusterID]RowGossip{someone(q): {Auth: vclock.Vector{earlyCreator: vclock.At(2)}}}
		}
		if rng.Intn(2) == 0 {
			dest, seq := someone(q), tick(q)
			pending = append(pending, earlyHint{dest, q, seq})
			m.OBs = map[ids.ClusterID]OBGossip{
				earlyT:     {Auth: vclock.Vector{q: vclock.At(m.Clock)}, Hints: vclock.Vector{dest: vclock.At(seq)}},
				someone(q): {Auth: vclock.Vector{q: vclock.Eps(1)}, Hints: vclock.Vector{dest: vclock.At(1)}},
			}
		}
		step := func(e *Engine) { e.HandlePropagate(earlyT, q, cloneProp(m)) }
		add(step)
		if rng.Intn(4) == 0 {
			add(step) // a duplicated propagation
		}
	}
	edgeUp := func(h ids.ClusterID) {
		var intro ids.ClusterID
		var introSeq uint64
		if hs := takeHints(h, false); len(hs) > 0 {
			intro, introSeq = hs[0].intro, hs[0].seq
		}
		first := !live[h]
		live[h] = true
		tick(h)
		add(func(e *Engine) { e.EdgeUp(h, earlyT, first, intro, introSeq) })
	}
	edgeDown := func(h ids.ClusterID) {
		delete(live, h)
		tick(h)
		add(func(e *Engine) { e.EdgeDown(h, earlyT); e.Drain() })
	}
	sentRef := func(h ids.ClusterID) {
		dest, want := someone(h), tick(h)
		pending = append(pending, earlyHint{dest, h, want})
		add(func(e *Engine) {
			if got := e.SentRef(h, earlyT, dest); got != want {
				panic(fmt.Sprintf("SentRef seq %d, the program modelled %d", got, want))
			}
		})
	}
	expire := func(h ids.ClusterID) {
		for _, x := range takeHints(h, true) {
			add(func(e *Engine) { e.ResolveIntroduction(h, earlyT, x.intro, x.seq) })
		}
	}
	dropCreator := func() {
		m := DestroyMsg{Auth: vclock.Vector{earlyCreator: vclock.Eps(tick(earlyCreator))}}
		seq := track(earlyCreator, StreamDestroy)
		add(func(e *Engine) { e.HandleDestroyFrame(earlyT, earlyCreator, copyBundle(m), seq, false) })
	}

	for n := 1 + rng.Intn(140); n > 0; n-- {
		q := earlyRemotes[rng.Intn(len(earlyRemotes))]
		h := earlyLocals[rng.Intn(len(earlyLocals))]
		switch rng.Intn(10) {
		case 0:
			destroyFrom(q, rng.Intn(2) == 0)
		case 1:
			assertFrom(q, true)
		case 2:
			assertFrom(q, false)
		case 3, 4:
			propagateFrom(q)
		case 5:
			edgeUp(h)
		case 6:
			if live[h] {
				edgeDown(h)
			}
		case 7:
			if live[h] {
				sentRef(h)
			}
		case 8:
			expire(h)
		case 9:
			if !wellFormed && rng.Intn(4) == 0 {
				dropCreator()
			}
		}
	}
	// Two programs in three wind everything down — every edge destroyed,
	// every introduction resolved — so the creator's last word decides.
	windDown := rng.Intn(3) > 0
	if windDown {
		for _, q := range earlyRemotes {
			destroyFrom(q, false)
		}
		for _, h := range earlyLocals {
			expire(h)
			if live[h] {
				edgeDown(h)
			}
		}
	}
	if windDown || rng.Intn(2) == 0 {
		dropCreator()
	}
	return prog
}

// earlyOutcome is everything one run leaves behind that the other must
// reproduce.
type earlyOutcome struct {
	removed []ids.ClusterID
	log     string
	clock   uint64
	settles []settledFrame
	sent    []string
	image   EngineImage
}

// runEarly plays prog against a fresh engine with the creation of earlyT
// delivered before the program (the specification) or after it (the
// race), then an epilogue that makes the survivor speak.
func runEarly(t *testing.T, prog earlyProgram, createFirst bool) earlyOutcome {
	t.Helper()
	var out earlyOutcome
	tp := &tape{}
	e := New(1, tp, func(cl ids.ClusterID) { out.removed = append(out.removed, cl) }, Options{
		RemoveObserver: func(id ids.ClusterID, log *vclock.Log, clock uint64) {
			if id == earlyT {
				out.log, out.clock = log.String(), clock
			}
		},
	})
	e.Register(r1)
	for _, h := range earlyLocals {
		e.Register(h)
		e.EdgeUp(r1, h, true, ids.NoCluster, 0)
	}
	create := func() {
		e.HandleCreate(earlyT, earlyCreator, earlyCreateStamp)
		e.Drain()
	}
	if createFirst {
		create()
	}
	for _, step := range prog.steps {
		step(e)
	}
	if !createFirst {
		if e.Registered(earlyT) || e.Removed(earlyT) {
			t.Fatal("the cluster was born or removed without its creation message")
		}
		create()
	}
	if e.Registered(earlyT) {
		next := ids.ClusterID{Site: 3, Seq: 9}
		e.EdgeUp(earlyT, next, true, ids.NoCluster, 0)
		e.SentRef(earlyT, next, earlyRemotes[0])
		e.EdgeDown(earlyT, next)
		e.Drain()
		out.log, out.clock = e.LogSnapshot(earlyT).String(), e.Clock(earlyT)
	}
	e.Refresh()
	img, err := e.Export()
	if err != nil {
		t.Fatal(err)
	}
	out.settles, out.sent, out.image = tp.settles, tp.sent, img
	return out
}

// TestEarlyFramesCommute is the specification as the oracle: "deliver the
// creation message first" is what the engine must behave like, and
// merge-on-arrival is correct because every merge commutes with the
// creation's. For each seeded program the run that sees the creation last
// (the race) must leave what the run that sees it first leaves: logs,
// clocks, verdict, frames sent, retained rows — and both must settle each
// tracked sequence exactly once.
func TestEarlyFramesCommute(t *testing.T) {
	var long, removed, alive int
	for seed := int64(1); seed <= 300; seed++ {
		prog := genEarlyProgram(seed, true)
		if len(prog.steps) > 64 {
			long++
		}
		spec, race := runEarly(t, prog, true), runEarly(t, prog, false)
		for name, got := range map[string][]settledFrame{"specification": spec.settles, "race": race.settles} {
			if !reflect.DeepEqual(got, prog.tracked) {
				t.Fatalf("seed %d, %s run: settled %v, want each delivered sequence exactly once: %v", seed, name, got, prog.tracked)
			}
		}
		if !reflect.DeepEqual(race.removed, spec.removed) {
			t.Fatalf("seed %d: race removed %v, specification %v", seed, race.removed, spec.removed)
		}
		if race.log != spec.log || race.clock != spec.clock {
			t.Fatalf("seed %d: logs differ\nrace (clock %d):\n%s\nspecification (clock %d):\n%s", seed, race.clock, race.log, spec.clock, spec.log)
		}
		if !reflect.DeepEqual(race.sent, spec.sent) {
			t.Fatalf("seed %d: frames sent differ\nrace: %q\nspecification: %q", seed, race.sent, spec.sent)
		}
		if !reflect.DeepEqual(race.image, spec.image) {
			t.Fatalf("seed %d: engine images differ\nrace: %+v\nspecification: %+v", seed, race.image, spec.image)
		}
		if len(spec.removed) > 0 {
			removed++
		} else {
			alive++
		}
	}
	if long < 50 || removed < 50 || alive < 50 {
		t.Fatalf("the generator degenerated: %d programs over 64 early frames, %d ended removed, %d alive", long, removed, alive)
	}
	// An unrestricted program may drop the creator's edge anywhere, so the
	// specification run can remove the cluster mid-program and see the
	// rest as stale traffic: the states are no longer comparable, but every
	// disposition is still final — each sequence settles once, either way.
	for seed := int64(1); seed <= 100; seed++ {
		prog := genEarlyProgram(seed, false)
		for _, createFirst := range []bool{true, false} {
			if got := runEarly(t, prog, createFirst).settles; !reflect.DeepEqual(got, prog.tracked) {
				t.Fatalf("unrestricted seed %d, creation first %v: settled %v, want %v", seed, createFirst, got, prog.tracked)
			}
		}
	}
}
