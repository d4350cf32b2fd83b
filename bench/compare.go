package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// resultFile is what -save writes and -compare reads: the machine the
// runs were made on, and the runs.
type resultFile struct {
	Machine machine   `json:"machine"`
	Runs    []*result `json:"runs"`
}

// appendResults adds runs to a result file, creating it if needed.
func appendResults(path string, runs []*result) error {
	file := resultFile{Machine: thisMachine()}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	file.Runs = append(file.Runs, runs...)
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &file, nil
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(v, n=4) does (exclusive method), so
// the comparator's spreads agree with the driver's.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// series is the values of one metric on one workload in one file, with
// the seed of each run.
type series struct {
	values []float64
	seeds  []int64
}

func collect(file *resultFile) map[string]map[string]*series {
	out := make(map[string]map[string]*series)
	for _, run := range file.Runs {
		byMetric := out[run.Workload]
		if byMetric == nil {
			byMetric = make(map[string]*series)
			out[run.Workload] = byMetric
		}
		for name, v := range run.Metrics {
			s := byMetric[name]
			if s == nil {
				s = &series{}
				byMetric[name] = s
			}
			s.values = append(s.values, v)
			s.seeds = append(s.seeds, run.Seed)
		}
	}
	return out
}

// Verdicts of one comparison row.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictEqual      = "equal"
	verdictDiffers    = "DIFFERS"
	verdictInfo       = "info"
)

// judge compares one metric of one workload between a baseline (a) and
// a candidate (b), applying the metric's own bound.
func judge(def metricDef, workload string, a, b *series) (verdict string, deltaPct, spreadPct float64) {
	_, medA, _ := quartiles(a.values)
	_, medB, _ := quartiles(b.values)
	if medA != 0 {
		deltaPct = 100 * (medB - medA) / math.Abs(medA)
	}
	// Counts on the deterministic workloads repeat bit for bit: runs of
	// the same seed must agree exactly.
	if def.exact && deterministic[workload] {
		bySeed := make(map[int64]float64)
		for i, seed := range a.seeds {
			bySeed[seed] = a.values[i]
		}
		matched := false
		for i, seed := range b.seeds {
			if v, ok := bySeed[seed]; ok {
				matched = true
				if v != b.values[i] {
					return verdictDiffers, deltaPct, 0
				}
			}
		}
		if matched {
			return verdictEqual, deltaPct, 0
		}
	}
	if def.bound == 0 {
		return verdictInfo, deltaPct, 0
	}
	spread := func(s *series) float64 {
		q1, med, q3 := quartiles(s.values)
		if med == 0 || len(s.values) < 2 {
			return 0
		}
		return (q3 - q1) / math.Abs(med)
	}
	sp := math.Max(spread(a), spread(b))
	spreadPct = 100 * sp
	worse := deltaPct / 100
	if def.better == "higher" {
		worse = -worse
	}
	allBetter, allWorse := true, true
	for _, va := range a.values {
		for _, vb := range b.values {
			better := vb < va
			if def.better == "higher" {
				better = vb > va
			}
			allBetter = allBetter && better
			allWorse = allWorse && !better && vb != va
		}
	}
	switch {
	case sp > def.bound && allBetter:
		return verdictBetter, deltaPct, spreadPct
	case sp > def.bound && !(allWorse && worse > def.bound):
		// The runs of one side disagree by more than the bound: the
		// medians cannot tell a change of that size from noise.
		return verdictUnresolved, deltaPct, spreadPct
	case worse > def.bound:
		return verdictRegression, deltaPct, spreadPct
	case worse < -def.bound:
		return verdictBetter, deltaPct, spreadPct
	}
	return verdictOK, deltaPct, spreadPct
}

// compareFiles prints one row per workload × metric present in both
// files and returns 1 if any row is a regression or an exact count
// differs.
func compareFiles(w io.Writer, pathA, pathB string) int {
	fa, err := loadResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fb, err := loadResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(w, "a: %s  (%d runs, commit %s, %d cores, %s)\n", pathA, len(fa.Runs), fa.Machine.Commit, fa.Machine.Cores, fa.Machine.GoVersion)
	fmt.Fprintf(w, "b: %s  (%d runs, commit %s, %d cores, %s)\n", pathB, len(fb.Runs), fb.Machine.Commit, fb.Machine.Cores, fb.Machine.GoVersion)
	a, b := collect(fa), collect(fb)
	fmt.Fprintf(w, "%-14s %-36s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "median a", "median b", "delta%", "spread%", "bound%", "verdict")
	bad, unresolved := 0, 0
	for _, sp := range specs {
		for _, def := range metricTable {
			sa, sb := a[sp.name][def.name], b[sp.name][def.name]
			if sa == nil || sb == nil {
				continue
			}
			verdict, delta, spread := judge(def, sp.name, sa, sb)
			_, medA, _ := quartiles(sa.values)
			_, medB, _ := quartiles(sb.values)
			fmt.Fprintf(w, "%-14s %-36s %14.4f %14.4f %+8.2f %8.2f %7.1f  %s\n",
				sp.name, def.name, medA, medB, delta, spread, 100*def.bound, verdict)
			switch verdict {
			case verdictRegression, verdictDiffers:
				bad++
			case verdictUnresolved:
				if !def.layer {
					unresolved++
				}
			}
		}
	}
	fmt.Fprintf(w, "%d regressions or differing counts, %d unresolved end-to-end metrics\n", bad, unresolved)
	if bad > 0 {
		return 1
	}
	return 0
}
