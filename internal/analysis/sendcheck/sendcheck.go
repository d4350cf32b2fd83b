// Package sendcheck enforces the emitLocked funnel (DESIGN.md §3.3,
// §5): inside the site runtime every outbound frame must flow through
// the emitLocked coalescer, because that is the single point where
// journal-before-send ordering and per-peer envelope coalescing are
// guaranteed. A direct transport Send anywhere else can ship a frame
// that was never journaled or that escapes an open commit window, so
// new code cannot silently bypass the invariant.
//
// Only the coalescer itself (emitLocked) and its flush path
// (flushCoalesceLocked) may call Send; an audited exception would
// carry //causalgc:allow-direct-send with a justification.
package sendcheck

import (
	"go/ast"

	"causalgc/internal/analysis"
)

// Config scopes the analyzer: which packages the funnel rule applies
// to and which functions are the funnel.
type Config struct {
	// Packages are the import paths where direct sends are forbidden.
	Packages []string
	// AllowIn names the functions that form the sanctioned send path.
	AllowIn []string
}

// Analyzer is the sendcheck instance the module gate runs, scoped to
// the site runtime with emitLocked/flushCoalesceLocked as the funnel.
var Analyzer = New(Config{
	Packages: []string{"causalgc/internal/site"},
	AllowIn:  []string{"emitLocked", "flushCoalesceLocked"},
})

// New returns a sendcheck analyzer for the given scope.
func New(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:        "sendcheck",
		Doc:         "wire output must go through the emitLocked coalescer so journal-before-send and envelope coalescing cannot be bypassed",
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
	allowed := map[string]bool{}
	for _, fn := range cfg.AllowIn {
		allowed[fn] = true
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || allowed[fd.Name.Name] {
				continue
			}
			checkBody(pass, fd)
		}
	}
	return nil
}

// checkBody flags transport Send calls in one function, attributing
// calls inside closures to the enclosing declaration.
func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Send" {
			return true
		}
		if pass.Allowed(call.Pos(), "direct-send") {
			return true
		}
		pass.Reportf(call.Pos(), "direct %s.Send in %s bypasses the emitLocked coalescer (journal-before-send and envelope coalescing are only guaranteed on that path)", exprString(sel.X), fd.Name.Name)
		return true
	})
}

// exprString renders the receiver expression of a selector for the
// diagnostic; it only needs to be recognisable, not exact.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	}
	return "transport"
}
