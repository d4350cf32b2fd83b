package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Result is the machine-readable outcome of one experiment: the verdict
// plus the headline numbers behind the printed table, keyed by stable
// metric names. CI lanes and the soak harness assert on these instead of
// scraping stdout.
type Result struct {
	// Experiment is the identifier (E5, E6, E7, E8, E9, A2).
	Experiment string `json:"experiment"`
	// Pass reports whether the experiment met its expectation.
	Pass bool `json:"pass"`
	// Metrics are the experiment's headline numbers. Counts are exact;
	// flags are 0/1.
	Metrics map[string]float64 `json:"metrics"`
}

// RunResults executes one experiment by identifier (E5, E6, E7, E8, E9,
// A2) or all of them ("all", case-insensitive), writing the human tables
// to w and returning the structured results in execution order, plus
// whether every executed experiment met its expectation. An unknown
// identifier runs nothing and returns no results and false.
func RunResults(w io.Writer, which string) ([]Result, bool) {
	which = strings.ToUpper(which)
	any := which == "ALL"
	var results []Result
	ok := true
	for _, exp := range []struct {
		name string
		run  func(io.Writer) Result
	}{
		{"E5", e5}, {"E6", e6}, {"E7", e7}, {"E8", e8}, {"E9", e9}, {"A2", a2},
	} {
		if !any && which != exp.name {
			continue
		}
		r := exp.run(w)
		results = append(results, r)
		ok = ok && r.Pass
	}
	if len(results) == 0 {
		fmt.Fprintf(w, "unknown experiment %q (want E5, E6, E7, E8, E9, A2 or all)\n", which)
		return nil, false
	}
	return results, ok
}

// WriteJSON renders results as an indented JSON array: the artifact
// format cmd/causalgc-bench -json emits.
func WriteJSON(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
