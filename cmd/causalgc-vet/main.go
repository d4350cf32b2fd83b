// Command causalgc-vet is the multichecker for the protocol's
// statically enforced invariants: it runs the internal/analysis suite
// (lockcheck, sendcheck, determcheck, errcmpcheck, doccheck) over the
// requested packages and exits non-zero on any diagnostic. CI runs it
// over ./... as the vet-invariants job; the docs-lint step runs just
// the doc checker via -doccheck.
//
// Usage:
//
//	causalgc-vet [-lockcheck] [-sendcheck] [-determcheck] [-errcmpcheck] [-doccheck] packages...
//
// Package patterns are module-relative directories ("./internal/site")
// or the recursive form "./...". Selecting one or more analyzer flags
// runs only those; selecting none runs the whole suite. Audited
// exceptions are annotated in source with //causalgc:allow-<rule>
// comments, never by suppressing the analyzer.
//
// The checker is hermetic: it parses and type-checks from source with
// the standard library only — no go/packages driver, no network, no
// pre-built export data — so it runs identically in CI, locally and in
// sandboxed builds.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"causalgc/internal/analysis"
	"causalgc/internal/analysis/determcheck"
	"causalgc/internal/analysis/doccheck"
	"causalgc/internal/analysis/errcmpcheck"
	"causalgc/internal/analysis/lockcheck"
	"causalgc/internal/analysis/sendcheck"
)

// suite is the full invariant-checker set in the order diagnostics
// are grouped; each entry's flag selects it individually.
var suite = []struct {
	flag     string
	analyzer *analysis.Analyzer
}{
	{"lockcheck", lockcheck.Analyzer},
	{"sendcheck", sendcheck.Analyzer},
	{"determcheck", determcheck.Analyzer},
	{"errcmpcheck", errcmpcheck.Analyzer},
	{"doccheck", doccheck.Analyzer},
}

func main() {
	selected := map[string]*bool{}
	for _, s := range suite {
		selected[s.flag] = flag.Bool(s.flag, false, s.analyzer.Doc)
	}
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: causalgc-vet [analyzer flags] packages...\n\nAnalyzers (none selected = all):\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	var analyzers []*analysis.Analyzer
	for _, s := range suite {
		if *selected[s.flag] {
			analyzers = append(analyzers, s.analyzer)
		}
	}
	if len(analyzers) == 0 {
		for _, s := range suite {
			analyzers = append(analyzers, s.analyzer)
		}
	}

	diags, err := vet(flag.Args(), analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "causalgc-vet: %v\n", err)
		os.Exit(2)
	}
	if len(diags) > 0 {
		w := bufio.NewWriter(os.Stderr)
		for _, d := range diags {
			fmt.Fprintln(w, d)
		}
		fmt.Fprintf(w, "causalgc-vet: %d invariant violation(s)\n", len(diags))
		w.Flush()
		os.Exit(1)
	}
}

// vet loads the packages the patterns name and runs the selected
// analyzers over them.
func vet(patterns []string, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	units, err := load(patterns)
	if err != nil {
		return nil, err
	}
	return analysis.Run(units, analyzers)
}

// load expands the package patterns and loads each package through one
// shared Loader, so dependencies type-check once.
func load(patterns []string) ([]*analysis.Unit, error) {
	root, modPath, err := findModule()
	if err != nil {
		return nil, err
	}
	dirs, err := expand(root, patterns)
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

// findModule locates go.mod upward from the working directory and
// reads the module path from its first module line.
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

// expand resolves package patterns to directories containing Go files.
// "dir/..." walks recursively, skipping testdata, vendor and hidden
// directories; a plain pattern names one directory.
func expand(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "all" {
			pat = "./..."
		}
		if strings.HasSuffix(pat, "...") {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
		}
		if pat == "" || pat == "." {
			pat = root
		} else if !filepath.IsAbs(pat) {
			pat = filepath.Join(root, pat)
		}
		if !recursive {
			add(pat)
			continue
		}
		err := filepath.WalkDir(pat, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != pat && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains a .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}
