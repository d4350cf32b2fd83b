package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// shortConfig runs every workload at its smallest size (one rounding
// unit of work), which keeps the whole battery within seconds.
func shortConfig(t *testing.T, seed int64) runConfig {
	t.Helper()
	return runConfig{seed: seed, seconds: 0.01, setups: 1, tmpDir: t.TempDir(), outDir: t.TempDir()}
}

// TestWorkloadsShort runs all five workloads untraced at the short
// scale: each must finish oracle-clean with no failed operation and
// report every end-to-end metric, none of them zero.
func TestWorkloadsShort(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			res, err := measure(sp, shortConfig(t, 1), false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("not correct: failed=%d problems=%v", res.Failed, res.Problems)
			}
			for _, def := range endToEnd {
				if v, ok := res.Metrics[def.name]; !ok || v == 0 {
					t.Errorf("%s = %v (present %v), want a non-zero value", def.name, v, ok)
				}
			}
		})
	}
}

// TestTracedRun checks that the traced run of a workload reports every
// per-layer metric, writes its span file, and that the layers separate
// as the workload table predicts: no journal activity off durable-tcp.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the layer probes")
	}
	sp, _ := findSpec("tcp-frames")
	cfg := shortConfig(t, 1)
	res, err := measureTraced(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("not correct: %v", res.Problems)
	}
	for _, def := range perLayer {
		if _, ok := res.Metrics[def.name]; !ok {
			t.Errorf("per-layer metric %s missing from the traced run", def.name)
		}
	}
	if res.Metrics["persist.syncs_per_op"] != 0 {
		t.Errorf("persist.syncs_per_op = %v on a workload without a journal", res.Metrics["persist.syncs_per_op"])
	}
	if res.State["send_spans"] == 0 || res.State["deliver_spans"] == 0 || res.State["commit_spans"] == 0 {
		t.Errorf("spans missing: %v", res.State)
	}
	if _, err := os.Stat(cfg.outDir + "/trace-tcp-frames.json"); err != nil {
		t.Errorf("span file: %v", err)
	}
}

// TestCountsRepeat checks the determinism the comparator relies on: on
// the simulator workloads the message and byte counts per reclaimed
// object are bit-identical for a fixed seed and differ for another.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("six more runs")
	}
	for _, name := range []string{"cycle-reclaim", "churn-faults"} {
		sp, _ := findSpec(name)
		var runs []*result
		for _, seed := range []int64{1, 1, 2} {
			res, err := measure(sp, shortConfig(t, seed), false)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, res)
		}
		for _, metric := range []string{"msgs_per_reclaimed_obj", "bytes_per_reclaimed_obj"} {
			a, b, c := runs[0].Metrics[metric], runs[1].Metrics[metric], runs[2].Metrics[metric]
			if a != b {
				t.Errorf("%s %s: %v then %v for the same seed", name, metric, a, b)
			}
			if a == c {
				t.Errorf("%s %s: %v for seeds 1 and 2 alike", name, metric, a)
			}
		}
	}
}

// TestManifestMatches keeps BENCHMARK.json at the repository root equal
// to what the metric and workload tables generate.
func TestManifestMatches(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Errorf("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
}

func fileOf(workload string, metric string, values []float64, seeds []int64) *resultFile {
	f := &resultFile{}
	for i, v := range values {
		f.Runs = append(f.Runs, &result{Workload: workload, Seed: seeds[i], Metrics: map[string]float64{metric: v}})
	}
	return f
}

func TestJudge(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	series := func(f *resultFile, w, m string) *series { return collect(f)[w][m] }
	def := func(name string) metricDef {
		for _, d := range metricTable {
			if d.name == name {
				return d
			}
		}
		t.Fatalf("no metric %s", name)
		return metricDef{}
	}
	cases := []struct {
		name, workload, metric string
		a, b                   []float64
		want                   string
	}{
		{"same", "tcp-frames", "settled_ops_per_s", []float64{100, 101, 99, 100}, []float64{100, 100, 101, 99}, verdictOK},
		{"slower", "tcp-frames", "settled_ops_per_s", []float64{100, 101, 99, 100}, []float64{60, 61, 59, 60}, verdictRegression},
		{"faster", "tcp-frames", "settled_ops_per_s", []float64{100, 101, 99, 100}, []float64{160, 161, 159, 160}, verdictBetter},
		{"noisy", "tcp-frames", "settled_ops_per_s", []float64{100, 160, 60, 120}, []float64{90, 150, 70, 100}, verdictUnresolved},
		{"count equal", "cycle-reclaim", "msgs_per_reclaimed_obj", []float64{21, 22, 23, 24}, []float64{21, 22, 23, 24}, verdictEqual},
		{"count moved", "cycle-reclaim", "msgs_per_reclaimed_obj", []float64{21, 22, 23, 24}, []float64{21, 22, 23.5, 24}, verdictDiffers},
	}
	for _, c := range cases {
		fa, fb := fileOf(c.workload, c.metric, c.a, seeds), fileOf(c.workload, c.metric, c.b, seeds)
		got, _, _ := judge(def(c.metric), c.workload, series(fa, c.workload, c.metric), series(fb, c.workload, c.metric))
		if got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, med, q3 := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}

func TestContractLine(t *testing.T) {
	res := &result{Workload: "tcp-frames", Correct: true, Attempted: 10, Metrics: map[string]float64{"setup_s": 0.5}}
	line := contractLine([]*result{res}, false)
	for _, want := range []string{`"correct":true`, `"attempted":10`, `"failed":0`, `"setup_s":{"value":0.5,"unit":"s"}`} {
		if !strings.Contains(line, want) {
			t.Errorf("contract line %s lacks %s", line, want)
		}
	}
}

// TestPace checks the burst bookkeeping the reference-speed timings rest
// on: one burst sets both ratios to nominal over measured.
func TestPace(t *testing.T) {
	p := newPace()
	if p.ratio() != 1 || p.runRatio() != 1 {
		t.Fatalf("ratios before any burst = %v, %v, want 1, 1", p.ratio(), p.runRatio())
	}
	pc := p.pacer()
	pc.tick() // never burst before, so one is due
	if p.bursts.Load() != 1 || pc.spent <= 0 {
		t.Fatalf("after one tick: %d bursts, %v spent", p.bursts.Load(), pc.spent)
	}
	want := float64(burstNominal) / float64(pc.spent)
	if p.ratio() != want || p.runRatio() != want {
		t.Errorf("ratios = %v, %v, want %v", p.ratio(), p.runRatio(), want)
	}
	pc.tick() // not due again yet
	if p.bursts.Load() != 1 {
		t.Errorf("a second tick within paceEvery ran a burst")
	}
}
