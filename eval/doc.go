// Package eval is the experiment harness of the reproduction: it
// regenerates the experiments indexed in DESIGN.md §4 — each
// corresponding to a figure, claim or comparison in the paper's
// evaluation, plus the repo's own durability and retirement claims
// (E9, E9b) — including the comparisons against the Schelvis
// timestamp-packet collector and a stop-the-world distributed tracer,
// whose implementations live under internal/baseline.
//
// The cmd/causalgc-bench binary is a thin front-end over this package.
package eval
