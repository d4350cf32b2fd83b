// Package determcheck enforces determinism of the replayable packages:
// the engine, heap, vector-clock, wire and simulator code must produce
// identical behaviour for identical inputs, because WAL replay
// (DESIGN.md §5) and the seeded simulator lanes depend on it. Four
// nondeterminism sources are forbidden there:
//
//   - wall-clock reads (time.Now, time.Since),
//   - the global math/rand source (argless rand.Int etc. — a seeded
//     *rand.Rand constructed via rand.New(rand.NewSource(seed)) is
//     deterministic and allowed),
//   - wire output performed directly inside a map iteration, whose
//     order varies run to run (collect the keys and sort first, as
//     flushCoalesceLocked does),
//   - leaving a map iteration (break, return) after acting on the
//     iteration variable: whichever element the runtime served first is
//     an arbitrary victim, so a live run and its replay pick different
//     ones (walk an ordered copy instead; a variable that only feeds a
//     condition — an existence check — picks nothing and is allowed).
//
// Audited sites carry //causalgc:allow-wallclock,
// //causalgc:allow-rand or //causalgc:allow-maporder with a
// justification.
package determcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"causalgc/internal/analysis"
)

// Config scopes the analyzer to the packages that must stay
// deterministic.
type Config struct {
	// Packages are the import paths under the determinism contract.
	Packages []string
}

// Analyzer is the determcheck instance run by causalgc-vet, covering
// the replay- and simulation-critical packages.
var Analyzer = New(Config{Packages: []string{
	"causalgc/internal/core",
	"causalgc/internal/heap",
	"causalgc/internal/vclock",
	"causalgc/internal/wire",
	"causalgc/internal/netsim",
	"causalgc/internal/site",
}})

// wallclockFuncs are the time package functions that read the clock.
var wallclockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// seededRandFuncs are the math/rand functions that construct an
// explicitly seeded generator rather than drawing from the global one.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// New returns a determcheck analyzer for the given scope.
func New(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:        "determcheck",
		Doc:         "deterministic packages must not read the wall clock, draw from the global rand source, emit in map-iteration order, or pick a map iteration's first element",
		NonTestOnly: true,
		Run: func(pass *analysis.Pass) error {
			return run(pass, cfg)
		},
	}
}

func run(pass *analysis.Pass, cfg Config) error {
	applies := false
	for _, p := range cfg.Packages {
		if pass.PkgPath == p {
			applies = true
		}
	}
	if !applies {
		return nil
	}
	for _, f := range pass.Files {
		timeNames, randNames := packageNames(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n, timeNames, randNames)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// packageNames resolves the file-local identifiers the time and
// math/rand packages are imported under (handling aliases), so the
// check survives renames without needing type information.
func packageNames(f *ast.File) (timeNames, randNames map[string]bool) {
	timeNames = map[string]bool{}
	randNames = map[string]bool{}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		}
		switch path {
		case "time":
			if name == "" {
				name = "time"
			}
			timeNames[name] = true
		case "math/rand", "math/rand/v2":
			if name == "" {
				name = "rand"
			}
			randNames[name] = true
		}
	}
	return timeNames, randNames
}

// checkCall flags wall-clock reads and global-source rand draws.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, timeNames, randNames map[string]bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	switch {
	case timeNames[pkg.Name] && wallclockFuncs[sel.Sel.Name]:
		if pass.Allowed(call.Pos(), "wallclock") {
			return
		}
		pass.Reportf(call.Pos(), "wall-clock read %s.%s in a deterministic package breaks replay; audited sites need //causalgc:allow-wallclock", pkg.Name, sel.Sel.Name)
	case randNames[pkg.Name] && !seededRandFuncs[sel.Sel.Name]:
		if pass.Allowed(call.Pos(), "rand") {
			return
		}
		pass.Reportf(call.Pos(), "%s.%s draws from the global rand source; use a seeded *rand.Rand (rand.New(rand.NewSource(seed))) or annotate //causalgc:allow-rand", pkg.Name, sel.Sel.Name)
	}
}

// checkMapRange flags wire output performed directly inside a range
// over a map: iteration order varies between runs, so the emitted
// frame order would too. Requires type information to know the ranged
// expression is a map; without it the check is skipped.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	if pass.TypesInfo == nil {
		return
	}
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	checkArbitraryPick(pass, rng)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if !emitsOutput(name) {
			return true
		}
		if pass.Allowed(call.Pos(), "maporder") {
			return true
		}
		pass.Reportf(call.Pos(), "%s inside a map iteration emits in nondeterministic order; collect the keys, sort, then emit (or annotate //causalgc:allow-maporder)", name)
		return true
	})
}

// checkArbitraryPick flags a map iteration that is left early (break,
// return) after a statement acted on its key or value — deleted it,
// stored it, passed it to a call, returned it. The element reached first
// varies run to run, so such a loop picks an arbitrary victim. A
// condition only tests, and a := only names a derived local.
func checkArbitraryPick(pass *analysis.Pass, rng *ast.RangeStmt) {
	vars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			vars[pass.TypesInfo.Defs[id]] = true
			vars[pass.TypesInfo.Uses[id]] = true
		}
	}
	delete(vars, nil)
	acts := func(s ast.Stmt) bool {
		if a, ok := s.(*ast.AssignStmt); ok && a.Tok == token.DEFINE {
			return false
		}
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			found = found || ok && vars[pass.TypesInfo.Uses[id]]
			return !found
		})
		return found
	}
	// In source order: once a statement has acted, every later exit from
	// the loop is a pick. An unlabeled break inside a nested loop, switch
	// or select belongs to that statement.
	acted := false
	var visit func(n ast.Node, breakLeaves bool)
	visit = func(n ast.Node, breakLeaves bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			leaves := false
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				if m != n && breakLeaves {
					visit(m, false)
					return false
				}
			case *ast.AssignStmt, *ast.ExprStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.GoStmt, *ast.DeferStmt:
				acted = acted || acts(m.(ast.Stmt))
			case *ast.ReturnStmt:
				acted = acted || acts(m)
				leaves = true
			case *ast.BranchStmt:
				leaves = m.Tok == token.BREAK && (breakLeaves || m.Label != nil)
			}
			if leaves && acted && !pass.Allowed(m.Pos(), "maporder") {
				pass.Reportf(m.Pos(), "leaving a map iteration after acting on its iteration variable picks an arbitrary element; walk a sorted or insertion-ordered copy (or annotate //causalgc:allow-maporder)")
			}
			return true
		})
	}
	visit(rng.Body, true)
}

// emitsOutput reports whether a callee name looks like wire output:
// the transport Send and the runtime's emit family.
func emitsOutput(name string) bool {
	return name == "Send" || strings.HasPrefix(name, "emit") || strings.HasPrefix(name, "Emit")
}
