package eval

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// TestRunResultsE5 runs the cheapest experiment end to end and checks
// the structured result carries the verdict and headline metrics that
// the printed table shows.
func TestRunResultsE5(t *testing.T) {
	var buf bytes.Buffer
	results, ok := RunResults(&buf, "e5")
	if !ok {
		t.Fatalf("E5 failed:\n%s", buf.String())
	}
	if len(results) != 1 || results[0].Experiment != "E5" {
		t.Fatalf("results = %+v, want one E5 entry", results)
	}
	r := results[0]
	if !r.Pass {
		t.Error("E5 result not passing")
	}
	if r.Metrics["cycle_collected"] != 1 {
		t.Errorf("cycle_collected = %v, want 1", r.Metrics["cycle_collected"])
	}
	if r.Metrics["ggd_messages"] <= 0 {
		t.Errorf("ggd_messages = %v, want > 0", r.Metrics["ggd_messages"])
	}
	if buf.Len() == 0 {
		t.Error("RunResults printed no human table")
	}
}

// TestRunResultsUnknown: an unknown identifier yields no results and a
// failing verdict.
func TestRunResultsUnknown(t *testing.T) {
	results, ok := RunResults(io.Discard, "E99")
	if ok || results != nil {
		t.Errorf("RunResults(E99) = %v, %v; want nil, false", results, ok)
	}
}

// TestWriteJSON round-trips the artifact format.
func TestWriteJSON(t *testing.T) {
	in := []Result{
		{Experiment: "E5", Pass: true, Metrics: map[string]float64{"ggd_messages": 12}},
		{Experiment: "A2", Pass: false, Metrics: map[string]float64{"dangling_sound": 0}},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out []Result
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("artifact is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out) != 2 || out[0].Experiment != "E5" || !out[0].Pass ||
		out[0].Metrics["ggd_messages"] != 12 || out[1].Pass {
		t.Errorf("round-trip mismatch: %+v", out)
	}
}
