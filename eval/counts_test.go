package eval

import (
	"io"
	"sort"
	"testing"
)

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

// TestExperimentCountsPinned runs each pinned experiment and compares
// every metric it reports with pinnedCounts, in both directions: a
// changed count, a new metric and a missing one all fail.
func TestExperimentCountsPinned(t *testing.T) {
	for _, exp := range sortedKeys(pinnedCounts) {
		want := pinnedCounts[exp]
		t.Run(exp, func(t *testing.T) {
			results, ok := RunResults(io.Discard, exp)
			if !ok || len(results) != 1 {
				t.Fatalf("%s did not pass (%d results)", exp, len(results))
			}
			got := results[0].Metrics
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
