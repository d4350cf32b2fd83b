// Package analysis is a small, dependency-free static-analysis
// framework in the spirit of golang.org/x/tools/go/analysis, built on
// the standard library's go/ast and go/types only (the build
// environment is hermetic, so the x/tools module is deliberately not a
// dependency). It exists to machine-check the protocol conventions the
// paper's safety argument leans on — journal-before-send, the
// emitLocked coalescer funnel, the *Locked mutex discipline,
// determinism of the replayable packages, and errors.Is sentinel
// comparison — before refactors (lock-striped sharding, async commit)
// rewrite the code those conventions live in.
//
// The shape mirrors go/analysis: an Analyzer bundles a name, doc and a
// Run function over a Pass; a Pass exposes the parsed files, the
// type-checked package and a Report sink. Loader type-checks module
// packages from source with a module-aware importer (standard-library
// imports resolve through go/importer's source importer, so no
// pre-built export data is needed). Audited exceptions are annotated
// in source with //causalgc:allow-<directive> comments rather than by
// weakening an analyzer; Pass.Allowed checks them.
//
// The analyzers themselves live in subpackages (lockcheck, sendcheck,
// determcheck, errcmpcheck, doccheck), and subpackage analysistest is
// the golden-file test harness. This package's external tests are the
// module gates: TestModuleInvariantsClean runs every analyzer over the
// whole module, TestNoDeadSurface finds internal functions only tests
// reach, and TestRetiredNamesStayGone and TestFrozenNamesStayInBench
// keep retired and bench-only names out of the code. One command runs
// the golden tests and every gate:
//
//	go test ./internal/analysis/...
//
// They leave the module one binary, cmd/causalgc-node; the worked
// examples are likewise tests, the root package's Example functions
// (go test -v -run Example .).
package analysis
