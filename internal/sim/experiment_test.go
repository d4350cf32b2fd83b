package sim

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"testing"

	"causalgc/internal/baseline/schelvis"
	"causalgc/internal/baseline/tracing"
	"causalgc/internal/heap"
	"causalgc/internal/ids"
	"causalgc/internal/mutator"
	"causalgc/internal/netsim"
	"causalgc/internal/oracle"
	"causalgc/internal/site"
)

// The experiments regenerate the evaluation indexed in DESIGN.md §4:
// each is a bounded configuration checked against one invariant, and
// reports its headline numbers as exact counts, keyed by stable metric
// names. `go test -v -run ExperimentCountsPinned ./internal/sim` prints
// their tables.

// pinnedCounts is every metric E5, E6, E7, E8, E9 and A2 report, as the
// current message schedule produces it. Each is an exact count on the
// deterministic simulator at a fixed seed, so the gate needs no quiet
// machine: a refactor that claims to leave detection alone must leave
// every entry equal to the digit.
//
// A change that alters detection on purpose (a shorter gather, a
// removal that certifies its ancestry) re-baselines this table in the
// same change and states the old and new values of every entry it
// moves.
var pinnedCounts = map[string]map[string]float64{
	"E5": {
		"cycle_collected": 1, "ggd_messages": 18, "destroy_msgs": 6, "prop_msgs": 6,
	},
	"E6": {
		"causal_paper_k4": 22, "causal_paper_k8": 47, "causal_paper_k16": 128, "causal_paper_k32": 230,
		"causal_sound_k4": 42, "causal_sound_k8": 224, "causal_sound_k16": 1019, "causal_sound_k32": 4423,
		"schelvis_k4": 34, "schelvis_k8": 101, "schelvis_k16": 516, "schelvis_k32": 2030,
		"causal_paper_bytes_k4": 1572, "causal_paper_bytes_k8": 3164, "causal_paper_bytes_k16": 11212, "causal_paper_bytes_k32": 18364,
		"causal_sound_bytes_k4": 4660, "causal_sound_bytes_k8": 39476, "causal_sound_bytes_k16": 215692, "causal_sound_bytes_k32": 1017436,
	},
	"E7": {
		"tracing_l50_g5": 62, "tracing_l100_g5": 112, "tracing_l200_g5": 212, "tracing_l50_g50": 62,
		"causal_l50_g5": 10, "causal_l100_g5": 10, "causal_l200_g5": 10, "causal_l50_g50": 100,
	},
	"E8": {
		"drop00_residual": 0, "drop00_after_refresh": 0, "drop00_dangling": 0,
		"drop10_residual": 13, "drop10_after_refresh": 0, "drop10_dangling": 0,
		"drop30_residual": 32, "drop30_after_refresh": 0, "drop30_dangling": 0,
	},
	"E9": {
		"leak_live_residual": 0, "leak_live_after_refresh": 0, "leak_live_dangling": 0,
		"leak_crashed_residual": 1, "leak_crashed_after_refresh": 0, "leak_crashed_dangling": 0,
		"churn_crashes": 25, "churn_replayed": 172,
		"churn_residual": 0, "churn_after_refresh": 0, "churn_dangling": 0,
		"e9b_last_reshipped": 0, "e9b_last_ctl_bytes": 0,
	},
	"A2": {
		"dangling_sound": 0, "dangling_paper_guard": 75,
		"dangling_skip_confirmation": 0, "dangling_no_hints": 75,
		"pinned_dangling_sound": 0, "pinned_dangling_skip_confirmation": 1,
	},
}

// experiments runs each experiment: it prints the experiment's table to
// w, fails t on an error or a broken expectation, and returns every
// metric the experiment reports.
var experiments = map[string]func(t *testing.T, w io.Writer) map[string]float64{
	"E5": e5, "E6": e6, "E7": e7, "E8": e8, "E9": e9, "A2": a2,
}

// TestExperimentCountsPinned runs each pinned experiment and compares
// every metric it reports with pinnedCounts, in both directions: a
// changed count, a new metric and a missing one all fail.
func TestExperimentCountsPinned(t *testing.T) {
	out := io.Discard
	if testing.Verbose() {
		out = os.Stdout
	}
	for _, exp := range sortedKeys(pinnedCounts) {
		want := pinnedCounts[exp]
		t.Run(exp, func(t *testing.T) {
			got := experiments[exp](t, out)
			for _, name := range sortedKeys(got) {
				if w, pinned := want[name]; !pinned {
					t.Errorf("%s: metric %s = %v is not pinned", exp, name, got[name])
				} else if got[name] != w {
					t.Errorf("%s: %s = %v, pinned %v", exp, name, got[name], w)
				}
			}
			for _, name := range sortedKeys(want) {
				if _, ok := got[name]; !ok {
					t.Errorf("%s: pinned metric %s (%v) not reported", exp, name, want[name])
				}
			}
		})
	}
}

// sortedKeys returns m's keys in order, for a stable report.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// b2f renders a verdict as a 0/1 metric.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// e5 regenerates Fig 3/8: collecting the paper's distributed cycle
// {2,3,4}, on the schedule TestPaperScenarioCycleCollected asserts on.
func e5(t *testing.T, w io.Writer) map[string]float64 {
	fmt.Fprintln(w, "== E5: Fig 3/8 — collecting the distributed cycle {2,3,4} ==")
	wd, _, msgs := collectPaperCycle(t)
	rep, st := wd.Check(), wd.Net().Stats()
	fmt.Fprintf(w, "cycle collected: %v; GGD messages: %d (destroy=%d prop=%d)\n\n",
		rep.Clean(), msgs, st.Sent("ggd.destroy"), st.Sent("ggd.prop"))
	return map[string]float64{
		"cycle_collected": b2f(rep.Clean()),
		"ggd_messages":    float64(msgs),
		"destroy_msgs":    float64(st.Sent("ggd.destroy")),
		"prop_msgs":       float64(st.Sent("ggd.prop")),
	}
}

// e6 regenerates the §4 comparison: messages to collect a detached
// doubly-linked list, for the causal algorithm under the paper's literal
// guard and the sound guard, versus Schelvis's eager timestamp packets,
// and the bytes both causal guards send doing it.
func e6(t *testing.T, w io.Writer) map[string]float64 {
	m := map[string]float64{}
	fmt.Fprintln(w, "== E6: §4 — messages to collect a detached doubly-linked list ==")
	fmt.Fprintf(w, "%6s %20s %14s %10s %14s %14s\n", "k", "causal(paper-guard)", "causal(sound)", "schelvis", "paper bytes", "sound bytes")
	for _, k := range []int{4, 8, 16, 32} {
		a, aBytes := dllCausalCost(t, k, true)
		b, bBytes := dllCausalCost(t, k, false)
		c := dllSchelvisCost(k)
		fmt.Fprintf(w, "%6d %20d %14d %10d %14d %14d\n", k, a, b, c, aBytes, bBytes)
		m[fmt.Sprintf("causal_paper_k%d", k)] = float64(a)
		m[fmt.Sprintf("causal_sound_k%d", k)] = float64(b)
		m[fmt.Sprintf("schelvis_k%d", k)] = float64(c)
		m[fmt.Sprintf("causal_paper_bytes_k%d", k)] = float64(aBytes)
		m[fmt.Sprintf("causal_sound_bytes_k%d", k)] = float64(bBytes)
	}
	fmt.Fprintln(w, "shape: paper-guard O(k); sound O(k²), above schelvis at every k; schelvis O(k²); sound bytes O(k²): a row crosses each edge once")
	fmt.Fprintln(w)
	return m
}

// dllCausalCost returns the number of messages and the approximate
// bytes the causal algorithm sends to collect a detached k-element
// doubly-linked list, and fails t unless collection completes. With
// paperGuard the paper's literal removal test (no row confirmation) is
// used.
func dllCausalCost(t *testing.T, k int, paperGuard bool) (msgs, bytes int) {
	t.Helper()
	opts := site.DefaultOptions()
	opts.Engine.UnsafeSkipConfirmation = paperGuard
	wd := NewWorld(k+1, netsim.Faults{Seed: 1}, opts)
	dll, err := mutator.BuildDLL(wd, k)
	if err != nil {
		t.Fatal(err)
	}
	baseMsgs, baseBytes := traffic(wd.Net().Stats())
	if err := dll.Detach(); err != nil {
		t.Fatal(err)
	}
	settle(t, wd)
	if rep := wd.Check(); !rep.Clean() {
		t.Errorf("k=%d paperGuard=%v: DLL not collected cleanly: %v", k, paperGuard, rep)
	}
	msgs, bytes = traffic(wd.Net().Stats())
	return msgs - baseMsgs, bytes - baseBytes
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

// dllSchelvisCost returns the number of messages Schelvis's algorithm
// sends on the same workload.
func dllSchelvisCost(k int) int {
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
func e7(t *testing.T, w io.Writer) map[string]float64 {
	m := map[string]float64{}
	fmt.Fprintln(w, "== E7: §1/§2.4 — tracing pays per live object; causal pays per garbage ==")
	fmt.Fprintf(w, "%22s %14s %14s\n", "workload", "tracing msgs", "causal msgs")
	for _, sh := range []struct{ live, garbage int }{
		{50, 5}, {100, 5}, {200, 5}, {50, 50},
	} {
		tr := e7Tracing(t, sh.live, sh.garbage)
		ca := e7Causal(t, sh.live, sh.garbage)
		fmt.Fprintf(w, "  live=%4d garbage=%3d %14d %14d\n", sh.live, sh.garbage, tr, ca)
		m[fmt.Sprintf("tracing_l%d_g%d", sh.live, sh.garbage)] = float64(tr)
		m[fmt.Sprintf("causal_l%d_g%d", sh.live, sh.garbage)] = float64(ca)
	}
	fmt.Fprintln(w, "shape: tracing grows with live count; causal is constant in it")
	fmt.Fprintln(w)
	return m
}

// buildE7 gives site 1's root `live` remote children spread over sites
// 2-6, and a chain of `garbage` remote objects hung off the root. It
// returns the world and a drop that cuts the chain from the root.
func buildE7(t *testing.T, live, garbage int, opts site.Options) (*World, func()) {
	t.Helper()
	wd := NewWorld(6, netsim.Faults{Seed: 1}, opts)
	s1 := wd.Site(1)
	for i := 0; i < live; i++ {
		if _, err := s1.NewRemote(s1.Root().Obj, ids.SiteID(2+i%5)); err != nil {
			t.Fatal(err)
		}
	}
	prevObj := s1.Root().Obj
	prevSite := s1
	var head heap.Ref
	for i := 0; i < garbage; i++ {
		ref, err := prevSite.NewRemote(prevObj, ids.SiteID(2+i%5))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			head = ref
		}
		run(t, wd)
		prevObj = ref.Obj
		prevSite = wd.Site(ref.Obj.Site)
	}
	run(t, wd)
	return wd, func() {
		if err := s1.DropRefs(s1.Root().Obj, head); err != nil {
			t.Fatal(err)
		}
	}
}

func e7Tracing(t *testing.T, live, garbage int) int {
	wd, drop := buildE7(t, live, garbage, site.Options{AutoCollect: false})
	col := tracing.New(wd.Sites(), wd.Net())
	st := wd.Net().Stats()
	drop()
	run(t, wd)
	col.RunEpoch(func() { run(t, wd) })
	return st.Sent("trace.mark") + st.Sent("trace.start") + st.Sent("trace.ack")
}

func e7Causal(t *testing.T, live, garbage int) int {
	wd, drop := buildE7(t, live, garbage, site.DefaultOptions())
	st := wd.Net().Stats()
	base := st.TotalSent()
	drop()
	settle(t, wd)
	return st.TotalSent() - base
}

// e8 regenerates the §1/§5 robustness claims: message loss never
// violates safety; it only leaves residual garbage that refresh rounds
// recover once the network heals.
func e8(t *testing.T, w io.Writer) map[string]float64 {
	m := map[string]float64{}
	fmt.Fprintln(w, "== E8: §1/§5 — robustness under control-message loss ==")
	fmt.Fprintf(w, "%10s %10s %14s %10s\n", "drop", "residual", "afterRefresh", "dangling")
	for _, drop := range []float64{0, 0.1, 0.3} {
		res, rec, dang := e8Run(t, drop)
		fmt.Fprintf(w, "%10.1f %10d %14d %10d\n", drop, res, rec, dang)
		key := fmt.Sprintf("drop%02.0f", drop*100)
		m[key+"_residual"] = float64(res)
		m[key+"_after_refresh"] = float64(rec)
		m[key+"_dangling"] = float64(dang)
	}
	fmt.Fprintln(w, "safety is unconditional (dangling always 0); loss costs only latency/residual")
	fmt.Fprintln(w)
	return m
}

func e8Run(t *testing.T, drop float64) (residual, recovered, dangling int) {
	for seed := int64(1); seed <= 5; seed++ {
		wd := NewWorld(5, netsim.Faults{Seed: seed, DropProb: drop, Reorder: true}, site.DefaultOptions())
		if _, err := mutator.Churn(wd, mutator.ChurnConfig{Seed: seed * 17, Ops: 150, StepsBetweenOps: 2}); err != nil {
			t.Fatal(err)
		}
		settle(t, wd)
		rep := wd.Check()
		residual += len(rep.Garbage)
		dangling += len(rep.Dangling)
		wd.Net().SetDropProb(0)
		refreshSettled(t, wd, 4)
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
// the two deterministic hint-leak scenarios of leak_test.go (a lost
// edge-assert with a live receiver — the edge never forms because the
// holder died — and a lost assert with a crashed receiver). Safety must
// be unconditional — the oracle may never observe a live object
// reclaimed, no matter where the crashes land — AND residual garbage
// must reach zero after bounded refresh rounds: with assert re-send,
// hint expiry and retained finalisation bundles, a crash or loss costs
// rounds, never a leak. The pinned counts hold each of these at zero.
func e9(t *testing.T, w io.Writer) map[string]float64 {
	m := map[string]float64{}
	fmt.Fprintln(w, "== E9: durability & hint resolution — safety unconditional, residual → 0 ==")
	for _, sc := range []struct {
		name, key string
		run       func(*testing.T) (*World, oracle.Report)
		rounds    int
	}{
		{"lost assert, live receiver (dead introduction)", "leak_live", leakDeadIntroduction, 1},
		{"lost assert, crashed receiver", "leak_crashed", leakLostAssertCrashedReceiver, 3},
	} {
		wd, before := sc.run(t)
		after := recoverResidual(t, wd, before, sc.rounds)
		dangling := len(before.Dangling) + len(after.Dangling)
		fmt.Fprintf(w, "%-46s residual=%d afterRefresh=%d dangling=%d\n", sc.name, len(before.Garbage), len(after.Garbage), dangling)
		m[sc.key+"_residual"] = float64(len(before.Garbage))
		m[sc.key+"_after_refresh"] = float64(len(after.Garbage))
		m[sc.key+"_dangling"] = float64(dangling)
	}
	fmt.Fprintf(w, "%6s %8s %10s %10s %14s %10s\n", "seed", "crashes", "replayed", "residual", "afterRefresh", "dangling")
	var sum e9Result
	for seed := int64(1); seed <= 5; seed++ {
		sr := e9Run(t, seed)
		fmt.Fprintf(w, "%6d %8d %10d %10d %14d %10d\n",
			seed, sr.crashes, sr.replayed, sr.residual, sr.afterRefresh, sr.dangling)
		sum.crashes += sr.crashes
		sum.replayed += sr.replayed
		sum.residual += sr.residual
		sum.afterRefresh += sr.afterRefresh
		sum.dangling += sr.dangling
	}
	m["churn_crashes"] = float64(sum.crashes)
	m["churn_replayed"] = float64(sum.replayed)
	m["churn_residual"] = float64(sum.residual)
	m["churn_after_refresh"] = float64(sum.afterRefresh)
	m["churn_dangling"] = float64(sum.dangling)
	fmt.Fprintln(w, "safety is unconditional (dangling always 0); refresh rounds drive residual to 0")
	fmt.Fprintln(w)
	m["e9b_last_reshipped"], m["e9b_last_ctl_bytes"] = e9SteadyState(t, w)
	return m
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
// (both pinned at zero).
func e9SteadyState(t *testing.T, w io.Writer) (lastRows, lastBytes float64) {
	fmt.Fprintln(w, "-- E9b: steady-state refresh traffic (re-shipped state → 0 after quiescence) --")
	wd, err := newWorld(4, netsim.Faults{Seed: 3}, site.DefaultOptions(), t.TempDir(), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer wd.Close()
	if _, err := mutator.Churn(wd, mutator.ChurnConfig{Seed: 19, Ops: 150, StepsBetweenOps: 2}); err != nil {
		t.Fatal(err)
	}
	settle(t, wd)
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
		refreshSettled(t, wd, 1)
		lastRows, lastBytes = float64(reshipped()-rowsBefore), float64(ctlBytes()-bytesBefore)
		fmt.Fprintf(w, "%8d %12.0f %16.0f\n", round, lastRows, lastBytes)
	}
	fmt.Fprintf(w, "steady-state refresh re-ships nothing: %v\n\n", lastRows == 0 && lastBytes == 0)
	return lastRows, lastBytes
}

type e9Result struct {
	crashes, replayed, residual, afterRefresh, dangling int
}

func e9Run(t *testing.T, seed int64) (r e9Result) {
	wd, err := newWorld(4, netsim.Faults{Seed: seed, Reorder: true}, site.DefaultOptions(), t.TempDir(), 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer wd.Close()
	rng := rand.New(rand.NewSource(seed * 31))
	for round := 0; round < 5; round++ {
		if _, err := mutator.Churn(wd, mutator.ChurnConfig{
			Seed: seed*100 + int64(round), Ops: 40, StepsBetweenOps: 3,
		}); err != nil {
			t.Fatal(err)
		}
		for i := rng.Intn(30); i > 0 && wd.Step(); i-- {
		}
		victim := ids.SiteID(1 + rng.Intn(4))
		if err := wd.Crash(victim); err != nil {
			t.Fatal(err)
		}
		if err := wd.Restart(victim); err != nil {
			t.Fatal(err)
		}
		r.crashes++
		run(t, wd)
		r.dangling += len(wd.Check().Dangling)
	}
	settle(t, wd)
	rep := wd.Check()
	r.residual = len(rep.Garbage)
	r.dangling += len(rep.Dangling)
	refreshSettled(t, wd, 6)
	rep = wd.Check()
	r.afterRefresh = len(rep.Garbage)
	r.dangling += len(rep.Dangling)
	r.replayed = wd.ReplayedRecords()
	return r
}

// a2 regenerates the ablation of the sound removal guard's two halves,
// row confirmation and introduction hints, each switched off on its own
// and both together (the paper's literal guard). Randomised churn
// reaches the hint race only: it finds no hole with confirmation alone
// off. The pinned lane is the deterministic schedule that does need
// confirmation, TestConfirmationGuardCounterexample's. The sound
// configuration never dangles in either lane.
func a2(t *testing.T, w io.Writer) map[string]float64 {
	fmt.Fprintln(w, "== A2: ablation — each half of the sound removal guard closes its own race ==")
	sound := a2Run(t, false, false)
	unsafe := a2Run(t, true, true)
	skipConf := a2Run(t, true, false)
	noHints := a2Run(t, false, true)
	fmt.Fprintf(w, "dangling references over 10 churn seeds: sound=%d paper-guard=%d\n", sound, unsafe)
	fmt.Fprintf(w, "  one half off: skip-confirmation=%d no-hints=%d (churn reaches the hint race only)\n", skipConf, noHints)
	pinned := func(skipConfirmation bool) int {
		wd, _ := confirmationCounterexample(t, skipConfirmation, false)
		return len(wd.Check().Dangling)
	}
	pinnedSound, pinnedSkip := pinned(false), pinned(true)
	fmt.Fprintf(w, "pinned confirmation counterexample (4 sites): sound=%d skip-confirmation=%d\n", pinnedSound, pinnedSkip)
	fmt.Fprintln(w, "(introduction hints close the churn race; row confirmation closes the pinned one)")
	fmt.Fprintln(w)
	return map[string]float64{
		"dangling_sound":                    float64(sound),
		"dangling_paper_guard":              float64(unsafe),
		"dangling_skip_confirmation":        float64(skipConf),
		"dangling_no_hints":                 float64(noHints),
		"pinned_dangling_sound":             float64(pinnedSound),
		"pinned_dangling_skip_confirmation": float64(pinnedSkip),
	}
}

func a2Run(t *testing.T, skipConfirmation, noHints bool) int {
	opts := site.DefaultOptions()
	opts.Engine.UnsafeSkipConfirmation = skipConfirmation
	opts.Engine.UnsafeNoHints = noHints
	dangling := 0
	for seed := int64(1); seed <= 10; seed++ {
		wd := NewWorld(6, netsim.Faults{Seed: seed}, opts)
		if _, err := mutator.Churn(wd, mutator.ChurnConfig{Seed: seed * 7, Ops: 150, StepsBetweenOps: 3}); err != nil {
			t.Fatal(err)
		}
		settle(t, wd)
		dangling += len(wd.Check().Dangling)
	}
	return dangling
}
