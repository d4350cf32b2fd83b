// Command bench is the repository's benchmark: five named, seed-driven
// workloads over the public causalgc API, end-to-end metrics from an
// untraced run, per-layer metrics from probes and a traced run, and a
// comparator for two sets of results. See README.md.
//
//	go -C bench run . --workload durable-tcp --seed 1 --seconds 10 --trace 0
//	go -C bench run .                        # all five workloads, untraced
//	go -C bench run . -layers                # the layer probes alone
//	go -C bench run . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all five)")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", defaultSeconds, "length of the timed part at the calibration commit; fixes the operation count")
		trace        = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: untraced run, prints the end-to-end metrics")
		layers       = flag.Bool("layers", false, "run the layer probes only")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		manifest     = flag.Bool("manifest", false, "print BENCHMARK.json as the metric table defines it")
		outDir       = flag.String("out", "out", "directory for result files, span files and scratch data")
		save         = flag.String("save", "", "append this invocation's results to the named file (for -compare)")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile of the settled system (where heap_mb_settled is read) to this file")
	)
	flag.Parse()

	switch {
	case *manifest:
		return printManifest()
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}

	tmp := filepath.Join(*outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(tmp)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, setups: minSetups, tmpDir: tmp, outDir: *outDir, memProfile: *memProfile}
	printMachine(os.Stdout)

	if *layers {
		probes, err := runProbes(tmp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: probes:", err)
			return 1
		}
		probes.print(os.Stdout)
		return 0
	}

	selected := specs
	if *workloadName != "" {
		sp, ok := findSpec(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []spec{sp}
	}

	var results []*result
	ok := true
	for _, sp := range selected {
		var res *result
		var err error
		if *trace == 1 {
			res, err = measureTraced(sp, cfg)
		} else {
			res, err = measure(sp, cfg, false)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printResult(os.Stdout, res)
		results = append(results, res)
		ok = ok && res.Correct
	}
	if *save != "" {
		if err := appendResults(*save, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Println(contractLine(results, *trace == 1))
	if !ok {
		return 1
	}
	return 0
}

// contractLine renders the last line of standard output: one JSON
// object with exactly the keys correct, attempted, failed and metrics.
// With one workload the metrics carry their plain names — every
// end-to-end metric untraced, every per-layer metric traced; with
// several, each name is prefixed by its workload.
func contractLine(results []*result, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, res := range results {
		out.Correct = out.Correct && res.Correct
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		for _, def := range metricTable {
			if def.layer != traced {
				continue
			}
			name := def.name
			if len(results) > 1 {
				name = res.Workload + "/" + name
			}
			out.Metrics[name] = value{res.Metrics[def.name], def.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// printResult lists every metric of a run by name with its unit.
func printResult(w *os.File, res *result) {
	title := fmt.Sprintf("%s  seed=%d  %d %s  traced=%v  attempted=%d failed=%d skipped=%d  correct=%v",
		res.Workload, res.Seed, res.Units, res.Unit, res.Traced, res.Attempted, res.Failed, res.Skipped, res.Correct)
	printMetrics(w, title, res.Metrics, res.Samples)
	keys := make([]string, 0, len(res.State))
	for k := range res.State {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  state %-34s %.6g\n", k, res.State[k])
	}
	printAttribution(w, res)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  PROBLEM %s\n", p)
	}
}

func printMetrics(w *os.File, title string, metrics map[string]float64, samples map[string]int) {
	fmt.Fprintf(w, "== %s\n", title)
	for _, def := range metricTable {
		v, ok := metrics[def.name]
		if !ok {
			continue
		}
		note := ""
		if n, ok := samples[def.samples]; ok && def.samples != "" {
			note = fmt.Sprintf("  (%d samples)", n)
		}
		fmt.Fprintf(w, "  %-40s %16.4f %s%s\n", def.name, v, def.unit, note)
	}
}
