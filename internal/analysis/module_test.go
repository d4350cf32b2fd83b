package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"causalgc/internal/analysis"
	"causalgc/internal/analysis/determcheck"
	"causalgc/internal/analysis/doccheck"
	"causalgc/internal/analysis/errcmpcheck"
	"causalgc/internal/analysis/lockcheck"
	"causalgc/internal/analysis/sendcheck"
)

// The module gates: TestModuleInvariantsClean runs the analyzer suite
// over every package of the module, TestNoDeadSurface finds internal
// functions only tests reach, and TestRetiredNamesStayGone and
// TestFrozenNamesStayInBench search the sources for names that must not
// come back. `go test ./internal/analysis/...` runs them together with
// the analyzers' golden tests.
//
// The checks are hermetic: the module is parsed and type-checked from
// source with the standard library only (no go/packages driver, no
// network, no pre-built export data). Audited exceptions are annotated
// in source with //causalgc:allow-<rule> comments, never by suppressing
// an analyzer.

// suite is the full invariant-checker set.
var suite = []*analysis.Analyzer{
	lockcheck.Analyzer,
	sendcheck.Analyzer,
	determcheck.Analyzer,
	errcmpcheck.Analyzer,
	doccheck.Analyzer,
}

// TestModuleInvariantsClean runs the entire analyzer suite over the
// module and fails on any diagnostic: the statically enforced
// invariants hold on every tree that passes go test ./....
func TestModuleInvariantsClean(t *testing.T) {
	diags, err := analysis.Run(loadModule(t), suite)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// module is every package of the module, bench/ included, type-checked
// once for all the gates that read types.
var module struct {
	once  sync.Once
	units []*analysis.Unit
	err   error
}

// loadModule returns the module's analysis units, loading them on the
// first call, and skips t in -short runs.
func loadModule(t *testing.T) []*analysis.Unit {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short runs")
	}
	module.once.Do(func() { module.units, module.err = load() })
	if module.err != nil {
		t.Fatalf("load: %v", module.err)
	}
	return module.units
}

// load loads every package of the module through one shared Loader, so
// dependencies type-check once.
func load() ([]*analysis.Unit, error) {
	root, modPath, err := findModule()
	if err != nil {
		return nil, err
	}
	dirs, err := moduleDirs(root)
	if err != nil {
		return nil, err
	}
	loader := analysis.NewLoader(root, modPath)
	var units []*analysis.Unit
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		pkgPath := modPath
		if rel != "." {
			pkgPath = modPath + "/" + filepath.ToSlash(rel)
		}
		us, err := loader.LoadDir(dir, pkgPath)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", pkgPath, err)
		}
		units = append(units, us...)
	}
	return units, nil
}

// findModule locates go.mod upward from the working directory (a test
// runs in its package directory, inside the module) and reads the
// module path from its module line.
func findModule() (root, modPath string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if strings.HasPrefix(line, "module ") {
					return dir, strings.TrimSpace(strings.TrimPrefix(line, "module ")), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// moduleDirs returns every directory under root that directly holds a
// .go file, skipping testdata, vendor, hidden and underscore
// directories.
func moduleDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if files, _ := filepath.Glob(filepath.Join(path, "*.go")); len(files) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}
