// causalgc-bench regenerates the experiment tables (E5–E9, A2) as plain
// text. Each experiment corresponds to a figure, claim or comparison in
// the paper; see DESIGN.md §4 for the index. The experiment logic lives
// in the causalgc/eval package.
//
// Usage:
//
//	causalgc-bench                              # all experiments
//	causalgc-bench -exp E6                      # one experiment
//	causalgc-bench -json results.json           # also write machine-readable results
//
// Performance numbers (throughput, latency, reclamation cost) are the
// business of the bench/ module, not of this tool: `bash bench/run.sh`.
package main

import (
	"flag"
	"fmt"
	"os"

	"causalgc/eval"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: E5 E6 E7 E8 E9 A2 or all")
	jsonPath := flag.String("json", "", "write the experiments' machine-readable results (eval.Result array) to this path ('-' for stdout) in addition to the tables")
	flag.Parse()
	results, ok := eval.RunResults(os.Stdout, *exp)
	if *jsonPath != "" && len(results) > 0 {
		if err := writeResults(*jsonPath, results); err != nil {
			fmt.Fprintln(os.Stderr, "causalgc-bench:", err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// writeResults writes the JSON artifact to path, or stdout for "-".
func writeResults(path string, results []eval.Result) error {
	if path == "-" {
		return eval.WriteJSON(os.Stdout, results)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := eval.WriteJSON(f, results); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
