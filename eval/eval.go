package eval

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"causalgc/internal/baseline/schelvis"
	"causalgc/internal/baseline/tracing"
	"causalgc/internal/ids"
	"causalgc/internal/mutator"
	"causalgc/internal/netsim"
	"causalgc/internal/sim"
	"causalgc/internal/site"
)

// fail finishes an experiment's Result after an unexpected error.
func fail(w io.Writer, r Result, err error) Result {
	fmt.Fprintln(w, "error:", err)
	r.Pass = false
	return r
}

// e5 regenerates Fig 3/8: collecting the paper's distributed cycle
// {2,3,4}. It reports success iff the cycle is fully reclaimed.
func e5(w io.Writer) Result {
	r := Result{Experiment: "E5", Metrics: map[string]float64{}}
	fmt.Fprintln(w, "== E5: Fig 3/8 — collecting the distributed cycle {2,3,4} ==")
	wd := sim.NewWorld(4, netsim.Faults{Seed: 1}, site.DefaultOptions())
	sc, err := mutator.BuildPaperScenario(wd)
	if err != nil {
		return fail(w, r, err)
	}
	st := wd.Net().Stats()
	base := st.TotalSent()
	if err := sc.DropRootEdge(); err != nil {
		return fail(w, r, err)
	}
	if err := wd.Settle(); err != nil {
		return fail(w, r, err)
	}
	rep := wd.Check()
	fmt.Fprintf(w, "cycle collected: %v; GGD messages: %d (destroy=%d prop=%d)\n\n",
		rep.Clean(), st.TotalSent()-base, st.Sent("ggd.destroy"), st.Sent("ggd.prop"))
	r.Pass = rep.Clean()
	r.Metrics["cycle_collected"] = b2f(rep.Clean())
	r.Metrics["ggd_messages"] = float64(st.TotalSent() - base)
	r.Metrics["destroy_msgs"] = float64(st.Sent("ggd.destroy"))
	r.Metrics["prop_msgs"] = float64(st.Sent("ggd.prop"))
	return r
}

// b2f renders a verdict as a 0/1 metric.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// e6 regenerates the §4 comparison: messages to collect a detached
// doubly-linked list, for the causal algorithm under the paper's literal
// guard and the sound guard, versus Schelvis's eager timestamp packets,
// and the bytes both causal guards send doing it.
func e6(w io.Writer) Result {
	r := Result{Experiment: "E6", Metrics: map[string]float64{}}
	fmt.Fprintln(w, "== E6: §4 — messages to collect a detached doubly-linked list ==")
	fmt.Fprintf(w, "%6s %20s %14s %10s %14s %14s\n", "k", "causal(paper-guard)", "causal(sound)", "schelvis", "paper bytes", "sound bytes")
	ok := true
	for _, k := range []int{4, 8, 16, 32} {
		a, aBytes, ok1 := DLLCausalCost(k, true)
		b, bBytes, ok2 := DLLCausalCost(k, false)
		c := DLLSchelvisCost(k)
		ok = ok && ok1 && ok2
		fmt.Fprintf(w, "%6d %20d %14d %10d %14d %14d\n", k, a, b, c, aBytes, bBytes)
		r.Metrics[fmt.Sprintf("causal_paper_k%d", k)] = float64(a)
		r.Metrics[fmt.Sprintf("causal_sound_k%d", k)] = float64(b)
		r.Metrics[fmt.Sprintf("schelvis_k%d", k)] = float64(c)
		r.Metrics[fmt.Sprintf("causal_paper_bytes_k%d", k)] = float64(aBytes)
		r.Metrics[fmt.Sprintf("causal_sound_bytes_k%d", k)] = float64(bBytes)
	}
	fmt.Fprintln(w, "shape: paper-guard O(k); sound O(k²), above schelvis at every k; schelvis O(k²); sound bytes O(k²): a row crosses each edge once")
	fmt.Fprintln(w)
	r.Pass = ok
	return r
}

// DLLCausalCost returns the number of messages and the approximate bytes
// the causal algorithm sends to collect a detached k-element
// doubly-linked list, and whether collection completed. With paperGuard
// the paper's literal removal test (no row confirmation) is used.
func DLLCausalCost(k int, paperGuard bool) (msgs, bytes int, ok bool) {
	opts := site.DefaultOptions()
	opts.Engine.UnsafeSkipConfirmation = paperGuard
	wd := sim.NewWorld(k+1, netsim.Faults{Seed: 1}, opts)
	dll, err := mutator.BuildDLL(wd, k)
	if err != nil {
		return 0, 0, false
	}
	baseMsgs, baseBytes := traffic(wd.Net().Stats())
	if err := dll.Detach(); err != nil {
		return 0, 0, false
	}
	if err := wd.Settle(); err != nil {
		return 0, 0, false
	}
	msgs, bytes = traffic(wd.Net().Stats())
	return msgs - baseMsgs, bytes - baseBytes, wd.Check().Clean()
}

// traffic sums the sends and their approximate bytes over every payload
// kind.
func traffic(st *netsim.Stats) (msgs, bytes int) {
	for _, k := range st.Snapshot() {
		msgs += k.Sent
		bytes += k.Bytes
	}
	return msgs, bytes
}

// DLLSchelvisCost returns the number of messages Schelvis's algorithm
// sends on the same workload.
func DLLSchelvisCost(k int) int {
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
	net.Run(0)
	for _, d := range dets {
		d.Kick()
	}
	net.Run(0)
	base := net.Stats().TotalSent()
	for _, e := range elems {
		dets[0].DestroyEdge(root, e)
	}
	net.Run(0)
	return net.Stats().TotalSent() - base
}

// e7 regenerates the §1/§2.4 contrast: distributed tracing pays per live
// object each epoch, the causal GGD pays per garbage object.
func e7(w io.Writer) Result {
	r := Result{Experiment: "E7", Metrics: map[string]float64{}}
	fmt.Fprintln(w, "== E7: §1/§2.4 — tracing pays per live object; causal pays per garbage ==")
	fmt.Fprintf(w, "%22s %14s %14s\n", "workload", "tracing msgs", "causal msgs")
	for _, sh := range []struct{ live, garbage int }{
		{50, 5}, {100, 5}, {200, 5}, {50, 50},
	} {
		tr := e7Tracing(sh.live, sh.garbage)
		ca := e7Causal(sh.live, sh.garbage)
		fmt.Fprintf(w, "  live=%4d garbage=%3d %14d %14d\n", sh.live, sh.garbage, tr, ca)
		r.Metrics[fmt.Sprintf("tracing_l%d_g%d", sh.live, sh.garbage)] = float64(tr)
		r.Metrics[fmt.Sprintf("causal_l%d_g%d", sh.live, sh.garbage)] = float64(ca)
	}
	fmt.Fprintln(w, "shape: tracing grows with live count; causal is constant in it")
	fmt.Fprintln(w)
	r.Pass = true
	return r
}

func buildE7(live, garbage int, opts site.Options) (*sim.World, func() error) {
	wd := sim.NewWorld(6, netsim.Faults{Seed: 1}, opts)
	s1 := wd.Site(1)
	for i := 0; i < live; i++ {
		if _, err := s1.NewRemote(s1.Root().Obj, ids.SiteID(2+i%5)); err != nil {
			panic(err)
		}
	}
	prevObj := s1.Root().Obj
	prevSite := s1
	drop := func() error { return nil }
	for i := 0; i < garbage; i++ {
		ref, err := prevSite.NewRemote(prevObj, ids.SiteID(2+i%5))
		if err != nil {
			panic(err)
		}
		if i == 0 {
			r := ref
			drop = func() error { return s1.DropRefs(s1.Root().Obj, r) }
		}
		if err := wd.Run(); err != nil {
			panic(err)
		}
		prevObj = ref.Obj
		prevSite = wd.Site(ref.Obj.Site)
	}
	wd.Run()
	return wd, drop
}

func e7Tracing(live, garbage int) int {
	wd, drop := buildE7(live, garbage, site.Options{AutoCollect: false})
	col := tracing.New(wd.Sites(), wd.Net())
	st := wd.Net().Stats()
	drop()
	wd.Run()
	col.RunEpoch(func() { wd.Run() })
	return st.Sent("trace.mark") + st.Sent("trace.start") + st.Sent("trace.ack")
}

func e7Causal(live, garbage int) int {
	wd, drop := buildE7(live, garbage, site.DefaultOptions())
	st := wd.Net().Stats()
	base := st.TotalSent()
	drop()
	wd.Settle()
	return st.TotalSent() - base
}

// e8 regenerates the §1/§5 robustness claims: message loss never
// violates safety; it only leaves residual garbage that refresh rounds
// recover once the network heals.
func e8(w io.Writer) Result {
	r := Result{Experiment: "E8", Metrics: map[string]float64{}}
	fmt.Fprintln(w, "== E8: §1/§5 — robustness under control-message loss ==")
	fmt.Fprintf(w, "%10s %10s %14s %10s\n", "drop", "residual", "afterRefresh", "dangling")
	ok := true
	for _, drop := range []float64{0, 0.1, 0.3} {
		res, rec, dang := e8Run(drop)
		fmt.Fprintf(w, "%10.1f %10d %14d %10d\n", drop, res, rec, dang)
		ok = ok && dang == 0
		key := fmt.Sprintf("drop%02.0f", drop*100)
		r.Metrics[key+"_residual"] = float64(res)
		r.Metrics[key+"_after_refresh"] = float64(rec)
		r.Metrics[key+"_dangling"] = float64(dang)
	}
	fmt.Fprintln(w, "safety is unconditional (dangling always 0); loss costs only latency/residual")
	fmt.Fprintln(w)
	r.Pass = ok
	return r
}

func e8Run(drop float64) (residual, recovered, dangling int) {
	for seed := int64(1); seed <= 5; seed++ {
		wd := sim.NewWorld(5, netsim.Faults{Seed: seed, DropProb: drop, Reorder: true}, site.DefaultOptions())
		mutator.Churn(wd, mutator.ChurnConfig{Seed: seed * 17, Ops: 150, StepsBetweenOps: 2})
		wd.Settle()
		rep := wd.Check()
		residual += len(rep.Garbage)
		dangling += len(rep.Dangling)
		wd.Net().SetDropProb(0)
		for i := 0; i < 4; i++ {
			wd.RefreshAll()
			wd.Settle()
		}
		rep = wd.Check()
		recovered += len(rep.Garbage)
		dangling += len(rep.Dangling)
	}
	return residual, recovered, dangling
}

// e9 exercises the durability subsystem's crash-recovery guarantee and
// the hint-resolution protocol's convergence-to-zero claim: randomised
// churn over durable sites (write-ahead log + snapshots, DESIGN.md §5)
// interleaved with process kills and recoveries at random points, plus
// the two deterministic hint-leak scenarios (a lost edge-assert with a
// live receiver — the edge never forms because the holder died — and a
// lost assert with a crashed receiver). Safety must be unconditional —
// the oracle may never observe a live object reclaimed, no matter where
// the crashes land — AND residual garbage must reach zero after bounded
// refresh rounds: with assert re-send, hint expiry and retained
// finalisation bundles, a crash or loss costs rounds, never a leak.
func e9(w io.Writer) Result {
	r := Result{Experiment: "E9", Metrics: map[string]float64{}}
	fmt.Fprintln(w, "== E9: durability & hint resolution — safety unconditional, residual → 0 ==")
	ok := true
	for _, sc := range []struct {
		name, key string
		run       func() (before, after, dangling int, err error)
	}{
		{"lost assert, live receiver (dead introduction)", "leak_live", e9LeakLiveReceiver},
		{"lost assert, crashed receiver", "leak_crashed", e9LeakCrashedReceiver},
	} {
		before, after, dangling, err := sc.run()
		if err != nil {
			return fail(w, r, err)
		}
		fmt.Fprintf(w, "%-46s residual=%d afterRefresh=%d dangling=%d\n", sc.name, before, after, dangling)
		ok = ok && after == 0 && dangling == 0
		r.Metrics[sc.key+"_residual"] = float64(before)
		r.Metrics[sc.key+"_after_refresh"] = float64(after)
		r.Metrics[sc.key+"_dangling"] = float64(dangling)
	}
	fmt.Fprintf(w, "%6s %8s %10s %10s %14s %10s\n", "seed", "crashes", "replayed", "residual", "afterRefresh", "dangling")
	var crashes, replayed, residual, afterRefresh, dangling int
	for seed := int64(1); seed <= 5; seed++ {
		sr, err := e9Run(seed)
		if err != nil {
			return fail(w, r, err)
		}
		fmt.Fprintf(w, "%6d %8d %10d %10d %14d %10d\n",
			seed, sr.crashes, sr.replayed, sr.residual, sr.afterRefresh, sr.dangling)
		ok = ok && sr.dangling == 0 && sr.afterRefresh == 0
		crashes += sr.crashes
		replayed += sr.replayed
		residual += sr.residual
		afterRefresh += sr.afterRefresh
		dangling += sr.dangling
	}
	r.Metrics["churn_crashes"] = float64(crashes)
	r.Metrics["churn_replayed"] = float64(replayed)
	r.Metrics["churn_residual"] = float64(residual)
	r.Metrics["churn_after_refresh"] = float64(afterRefresh)
	r.Metrics["churn_dangling"] = float64(dangling)
	fmt.Fprintln(w, "safety is unconditional (dangling always 0); refresh rounds drive residual to 0")
	fmt.Fprintln(w)
	lastRows, lastBytes, steady := e9SteadyState(w)
	r.Metrics["e9b_last_reshipped"] = float64(lastRows)
	r.Metrics["e9b_last_ctl_bytes"] = float64(lastBytes)
	r.Pass = ok && steady
	return r
}

// e9SteadyState measures the steady-state cost of refresh rounds under
// the acknowledged-retirement protocol (DESIGN.md §3.2): after a
// fault-free workload settles and its FrameAcks drain, each further
// refresh round must re-ship ZERO retained rows — journaled asserts,
// edge-destruction bundles, outbox frames —
// and its destroy/assert wire traffic must be zero bytes. Before the
// protocol every round re-shipped the full journal and bundle set, so
// steady-state refresh traffic grew with history; now it converges. It
// returns the final round's re-shipped row count and control bytes
// (both must be zero) and whether they were.
func e9SteadyState(w io.Writer) (lastRows, lastBytes int, ok bool) {
	fmt.Fprintln(w, "-- E9b: steady-state refresh traffic (re-shipped state → 0 after quiescence) --")
	dir, err := os.MkdirTemp("", "causalgc-e9b-*")
	if err != nil {
		fmt.Fprintln(w, "error:", err)
		return -1, -1, false
	}
	defer os.RemoveAll(dir)
	wd, err := sim.NewDurableWorld(4, netsim.Faults{Seed: 3}, site.DefaultOptions(), dir, 64)
	if err != nil {
		fmt.Fprintln(w, "error:", err)
		return -1, -1, false
	}
	defer wd.Close()
	if _, err := mutator.Churn(wd, mutator.ChurnConfig{Seed: 19, Ops: 150, StepsBetweenOps: 2}); err != nil {
		fmt.Fprintln(w, "error:", err)
		return -1, -1, false
	}
	if err := wd.Settle(); err != nil {
		fmt.Fprintln(w, "error:", err)
		return -1, -1, false
	}
	reshipped := func() int {
		n := 0
		for _, s := range wd.Sites() {
			es := s.EngineStats()
			n += es.AssertResends + es.DestroyResends
			n += s.FrameStats().OutboxResends
		}
		return n
	}
	st := wd.Net().Stats()
	ctlBytes := func() int {
		_, _, _, _, d := st.Kind("ggd.destroy")
		_, _, _, _, a := st.Kind("ggd.assert")
		return d + a
	}
	fmt.Fprintf(w, "%8s %12s %16s\n", "round", "reshipped", "destroy+assert B")
	for round := 1; round <= 5; round++ {
		rowsBefore, bytesBefore := reshipped(), ctlBytes()
		if err := wd.RefreshAll(); err != nil {
			fmt.Fprintln(w, "error:", err)
			return -1, -1, false
		}
		if err := wd.Settle(); err != nil {
			fmt.Fprintln(w, "error:", err)
			return -1, -1, false
		}
		lastRows, lastBytes = reshipped()-rowsBefore, ctlBytes()-bytesBefore
		fmt.Fprintf(w, "%8d %12d %16d\n", round, lastRows, lastBytes)
	}
	ok = lastRows == 0 && lastBytes == 0
	fmt.Fprintf(w, "steady-state refresh re-ships nothing: %v\n\n", ok)
	return lastRows, lastBytes, ok
}

// e9LeakLiveReceiver reproduces the dead-introduction leak: a reference
// forwarded to a holder object that was collected before the transfer
// arrives. The edge never forms, so no edge-assert ever resolves the
// introduction hint armed at the target — only the expiry protocol can.
func e9LeakLiveReceiver() (before, after, dangling int, err error) {
	wd := sim.NewWorld(3, netsim.Faults{Seed: 1}, site.DefaultOptions())
	s1 := wd.Site(1)
	x, err := s1.NewRemote(s1.Root().Obj, 2)
	if err != nil {
		return 0, 0, 0, err
	}
	tgt, err := s1.NewRemote(s1.Root().Obj, 3)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := wd.Run(); err != nil {
		return 0, 0, 0, err
	}
	if err := s1.DropRefs(s1.Root().Obj, x); err != nil {
		return 0, 0, 0, err
	}
	if err := wd.Settle(); err != nil {
		return 0, 0, 0, err
	}
	// The stale forward reaches site 2 after x's collection.
	if err := s1.SendRef(s1.Root().Obj, x, tgt); err != nil {
		return 0, 0, 0, err
	}
	if err := wd.Run(); err != nil {
		return 0, 0, 0, err
	}
	if err := s1.DropRefs(s1.Root().Obj, tgt); err != nil {
		return 0, 0, 0, err
	}
	if err := wd.Settle(); err != nil {
		return 0, 0, 0, err
	}
	rep := wd.Check()
	before, dangling = len(rep.Garbage), len(rep.Dangling)
	if err := wd.RefreshAll(); err != nil {
		return 0, 0, 0, err
	}
	if err := wd.Settle(); err != nil {
		return 0, 0, 0, err
	}
	rep = wd.Check()
	return before, len(rep.Garbage), dangling + len(rep.Dangling), nil
}

// e9LeakCrashedReceiver reproduces the crashed-receiver leak: the hint
// owner's site is killed while the edge-assert is in flight, and again
// while the asserting cluster's finalisation destroy is in flight —
// both resolution carriers lost. Bounded refresh rounds must still
// reclaim the pinned target.
func e9LeakCrashedReceiver() (before, after, dangling int, err error) {
	dir, err := os.MkdirTemp("", "causalgc-e9-leak-*")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	wd, err := sim.NewDurableWorld(3, netsim.Faults{Seed: 7}, site.DefaultOptions(), dir, 8)
	if err != nil {
		return 0, 0, 0, err
	}
	defer wd.Close()
	s1 := wd.Site(1)
	x, err := s1.NewRemote(s1.Root().Obj, 2)
	if err != nil {
		return 0, 0, 0, err
	}
	tgt, err := s1.NewRemote(s1.Root().Obj, 3)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := wd.Run(); err != nil {
		return 0, 0, 0, err
	}
	if err := wd.Crash(3); err != nil {
		return 0, 0, 0, err
	}
	if err := s1.SendRef(s1.Root().Obj, x, tgt); err != nil {
		return 0, 0, 0, err
	}
	if err := wd.Run(); err != nil { // x forms the edge; its assert is eaten
		return 0, 0, 0, err
	}
	if err := wd.Restart(3); err != nil {
		return 0, 0, 0, err
	}
	if err := s1.DropRefs(s1.Root().Obj, x); err != nil {
		return 0, 0, 0, err
	}
	for i := 0; i < sim.DefaultStepBudget && !wd.Site(2).ClusterRemoved(x.Cluster); i++ {
		if !wd.Step() {
			break
		}
	}
	if err := wd.Crash(3); err != nil { // eats x's finalisation destroy
		return 0, 0, 0, err
	}
	if err := wd.Restart(3); err != nil {
		return 0, 0, 0, err
	}
	if err := s1.DropRefs(s1.Root().Obj, tgt); err != nil {
		return 0, 0, 0, err
	}
	if err := wd.Settle(); err != nil {
		return 0, 0, 0, err
	}
	rep := wd.Check()
	before, dangling = len(rep.Garbage), len(rep.Dangling)
	for i := 0; i < 3 && len(rep.Garbage) > 0; i++ {
		if err := wd.RefreshAll(); err != nil {
			return 0, 0, 0, err
		}
		if err := wd.Settle(); err != nil {
			return 0, 0, 0, err
		}
		rep = wd.Check()
	}
	return before, len(rep.Garbage), dangling + len(rep.Dangling), nil
}

type e9Result struct {
	crashes, replayed, residual, afterRefresh, dangling int
}

func e9Run(seed int64) (r e9Result, err error) {
	dir, err := os.MkdirTemp("", "causalgc-e9-*")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	wd, err := sim.NewDurableWorld(4, netsim.Faults{Seed: seed, Reorder: true}, site.DefaultOptions(), dir, 16)
	if err != nil {
		return r, err
	}
	defer wd.Close()
	rng := rand.New(rand.NewSource(seed * 31))
	for round := 0; round < 5; round++ {
		if _, err := mutator.Churn(wd, mutator.ChurnConfig{
			Seed: seed*100 + int64(round), Ops: 40, StepsBetweenOps: 3,
		}); err != nil {
			return r, err
		}
		for i := rng.Intn(30); i > 0 && wd.Step(); i-- {
		}
		victim := ids.SiteID(1 + rng.Intn(4))
		if err := wd.Crash(victim); err != nil {
			return r, err
		}
		if err := wd.Restart(victim); err != nil {
			return r, err
		}
		r.crashes++
		if err := wd.Run(); err != nil {
			return r, err
		}
		r.dangling += len(wd.Check().Dangling)
	}
	if err := wd.Settle(); err != nil {
		return r, err
	}
	rep := wd.Check()
	r.residual = len(rep.Garbage)
	r.dangling += len(rep.Dangling)
	for i := 0; i < 6; i++ {
		if err := wd.RefreshAll(); err != nil {
			return r, err
		}
		if err := wd.Settle(); err != nil {
			return r, err
		}
	}
	rep = wd.Check()
	r.afterRefresh = len(rep.Garbage)
	r.dangling += len(rep.Dangling)
	r.replayed = wd.ReplayedRecords()
	return r, nil
}

// a2 regenerates the ablation of the sound removal guard's two halves,
// row confirmation and introduction hints, each switched off on its own
// and both together (the paper's literal guard). Randomised churn
// reaches the hint race only: it finds no hole with confirmation alone
// off. The pinned lane is the deterministic schedule that does need
// confirmation. The sound configuration never dangles in either lane.
func a2(w io.Writer) Result {
	r := Result{Experiment: "A2", Metrics: map[string]float64{}}
	fmt.Fprintln(w, "== A2: ablation — each half of the sound removal guard closes its own race ==")
	sound := a2Run(false, false)
	unsafe := a2Run(true, true)
	skipConf := a2Run(true, false)
	noHints := a2Run(false, true)
	fmt.Fprintf(w, "dangling references over 10 churn seeds: sound=%d paper-guard=%d\n", sound, unsafe)
	fmt.Fprintf(w, "  one half off: skip-confirmation=%d no-hints=%d (churn reaches the hint race only)\n", skipConf, noHints)
	pinnedSound, err := a2Pinned(false)
	if err != nil {
		return fail(w, r, err)
	}
	pinnedSkip, err := a2Pinned(true)
	if err != nil {
		return fail(w, r, err)
	}
	fmt.Fprintf(w, "pinned confirmation counterexample (4 sites): sound=%d skip-confirmation=%d\n", pinnedSound, pinnedSkip)
	fmt.Fprintln(w, "(introduction hints close the churn race; row confirmation closes the pinned one)")
	fmt.Fprintln(w)
	r.Pass = sound == 0 && pinnedSound == 0
	r.Metrics["dangling_sound"] = float64(sound)
	r.Metrics["dangling_paper_guard"] = float64(unsafe)
	r.Metrics["dangling_skip_confirmation"] = float64(skipConf)
	r.Metrics["dangling_no_hints"] = float64(noHints)
	r.Metrics["pinned_dangling_sound"] = float64(pinnedSound)
	r.Metrics["pinned_dangling_skip_confirmation"] = float64(pinnedSkip)
	return r
}

func a2Run(skipConfirmation, noHints bool) int {
	opts := site.DefaultOptions()
	opts.Engine.UnsafeSkipConfirmation = skipConfirmation
	opts.Engine.UnsafeNoHints = noHints
	dangling := 0
	for seed := int64(1); seed <= 10; seed++ {
		wd := sim.NewWorld(6, netsim.Faults{Seed: seed}, opts)
		mutator.Churn(wd, mutator.ChurnConfig{Seed: seed * 7, Ops: 150, StepsBetweenOps: 3})
		wd.Settle()
		dangling += len(wd.Check().Dangling)
	}
	return dangling
}

// a2Pinned runs the confirmation counterexample on four sites: root₁
// creates x on site 2, x creates y on site 3, root₁ creates z on site
// 4, x forwards y to z and root₁ drops z. Z's removal sends Ē(Z→Y);
// Y's closure expands X, whose row Y has never received, so without
// confirmation Y removes itself under x→y. It returns the dangling
// references once the world settles.
func a2Pinned(skipConfirmation bool) (int, error) {
	opts := site.DefaultOptions()
	opts.Engine.UnsafeSkipConfirmation = skipConfirmation
	wd := sim.NewWorld(4, netsim.Faults{Seed: 1}, opts)
	s1, s2 := wd.Site(1), wd.Site(2)
	root := s1.Root().Obj
	x, err := s1.NewRemote(root, 2)
	if err != nil {
		return 0, err
	}
	if err := wd.Run(); err != nil {
		return 0, err
	}
	y, err := s2.NewRemote(x.Obj, 3)
	if err != nil {
		return 0, err
	}
	z, err := s1.NewRemote(root, 4)
	if err != nil {
		return 0, err
	}
	if err := wd.Run(); err != nil {
		return 0, err
	}
	if err := s2.SendRef(x.Obj, z, y); err != nil {
		return 0, err
	}
	if err := s1.DropRefs(root, z); err != nil {
		return 0, err
	}
	if err := wd.Settle(); err != nil {
		return 0, err
	}
	return len(wd.Check().Dangling), nil
}
