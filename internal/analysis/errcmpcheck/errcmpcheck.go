// Package errcmpcheck enforces errors.Is discipline for the module's
// sentinel errors: every sentinel (the Err* variables in errors.go,
// internal/heap/errors.go and internal/site/errors.go) is routinely
// wrapped with %w as it crosses package boundaries, so a direct == or
// != against one silently misses the wrapped form. Comparisons must go
// through errors.Is; == is only meaningful against nil.
//
// The analyzer flags ==/!= where either operand resolves to a
// package-level error variable named Err*, and the same pattern as
// switch cases. Audited sites (none are expected) would carry
// //causalgc:allow-errcmp.
package errcmpcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"causalgc/internal/analysis"
)

// Analyzer is the errcmpcheck instance the module gate runs.
var Analyzer = New()

// sentinelName matches the sentinel-error naming convention.
var sentinelName = regexp.MustCompile(`^Err[A-Z0-9]`)

// New returns the errcmpcheck analyzer. It applies to every package:
// sentinel misuse is as wrong in tests as in shipped code.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "errcmpcheck",
		Doc:  "sentinel errors must be compared with errors.Is, never == or !=",
		Run:  run,
	}
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				for _, pair := range [][2]ast.Expr{{n.X, n.Y}, {n.Y, n.X}} {
					operand, other := pair[0], pair[1]
					if name, ok := sentinel(pass, operand); ok && !isNil(other) {
						if !pass.Allowed(n.Pos(), "errcmp") {
							pass.Reportf(n.Pos(), "sentinel error %s compared with %s; wrapped errors make this miss — use errors.Is", name, n.Op)
						}
						break
					}
				}
			case *ast.SwitchStmt:
				checkSwitch(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkSwitch flags `switch err { case ErrFoo: }`, which compares with
// == just as silently as the operator form.
func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, expr := range cc.List {
			if name, ok := sentinel(pass, expr); ok && !pass.Allowed(expr.Pos(), "errcmp") {
				pass.Reportf(expr.Pos(), "sentinel error %s as a switch case compares with ==; wrapped errors make this miss — use errors.Is", name)
			}
		}
	}
}

// sentinel reports whether expr denotes a sentinel error variable: an
// identifier (possibly package-qualified) matching Err[A-Z...] that,
// when type information is available, resolves to a package-level
// variable of error type. Without type information the naming
// convention alone decides, so the check degrades gracefully on
// partially checked code.
func sentinel(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	var id *ast.Ident
	display := ""
	switch x := expr.(type) {
	case *ast.Ident:
		id, display = x, x.Name
	case *ast.SelectorExpr:
		if pkg, ok := x.X.(*ast.Ident); ok {
			id, display = x.Sel, pkg.Name+"."+x.Sel.Name
		}
	}
	if id == nil || !sentinelName.MatchString(id.Name) {
		return "", false
	}
	if pass.TypesInfo != nil {
		if obj, ok := pass.TypesInfo.Uses[id]; ok {
			v, isVar := obj.(*types.Var)
			if !isVar || v.Parent() == nil || v.Parent().Parent() != types.Universe || !isErrorType(v.Type()) {
				return "", false
			}
		}
	}
	return display, true
}

// isErrorType reports whether t is or implements the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errType) || types.Implements(types.NewPointer(t), errType)
}

// isNil reports whether expr is the predeclared nil.
func isNil(expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	return ok && id.Name == "nil"
}
