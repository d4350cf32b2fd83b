// Package doccheck enforces the documentation contract on the public
// API and the load-bearing internals: every exported identifier in the
// lint set must carry a doc comment, so `go doc` tells the protocol
// story end to end. It is the analyzer port of the repository's
// original doclint_test.go go/ast walker; the docs-lint CI step now
// runs it as `causalgc-vet -doccheck ./...`.
package doccheck

import (
	"go/ast"
	"go/token"
	"strings"

	"causalgc/internal/analysis"
)

// Config scopes the analyzer to the packages whose exported surface
// must be fully documented.
type Config struct {
	// Packages are the import paths in the lint set.
	Packages []string
}

// Analyzer is the doccheck instance run by causalgc-vet: the public
// packages plus the internals that carry the protocol's design
// documentation.
var Analyzer = New(Config{Packages: []string{
	"causalgc",
	"causalgc/monitor",
	"causalgc/transport",
	"causalgc/transport/tcp",
	"causalgc/persist",
	"causalgc/internal/core",
	"causalgc/internal/site",
	"causalgc/internal/vclock",
	"causalgc/internal/wire",
	"causalgc/internal/analysis",
}})

// New returns a doccheck analyzer for the given lint set.
func New(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:        "doccheck",
		Doc:         "exported identifiers in the lint set must carry doc comments",
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
	hasPkgDoc := false
	for _, f := range pass.Files {
		if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
			hasPkgDoc = true
		}
	}
	if !hasPkgDoc {
		pass.Reportf(pass.Files[0].Package, "package %s has no package doc comment", pass.PkgName)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedReceiver(d) {
					continue
				}
				if d.Doc == nil || len(strings.TrimSpace(d.Doc.Text())) == 0 {
					pass.Reportf(d.Pos(), "exported %s lacks a doc comment", funcLabel(d))
				}
			case *ast.GenDecl:
				checkGenDecl(pass, d)
			}
		}
	}
	return nil
}

// checkGenDecl checks type/var/const declarations: each exported spec
// needs a doc comment on the spec or on its enclosing group.
func checkGenDecl(pass *analysis.Pass, d *ast.GenDecl) {
	if d.Tok == token.IMPORT {
		return
	}
	groupDoc := d.Doc != nil && len(strings.TrimSpace(d.Doc.Text())) > 0
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if !groupDoc && (s.Doc == nil || len(strings.TrimSpace(s.Doc.Text())) == 0) {
				pass.Reportf(s.Pos(), "exported type %s lacks a doc comment", s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, n := range s.Names {
				if !n.IsExported() {
					continue
				}
				if !groupDoc && (s.Doc == nil || len(strings.TrimSpace(s.Doc.Text())) == 0) &&
					(s.Comment == nil || len(strings.TrimSpace(s.Comment.Text())) == 0) {
					pass.Reportf(s.Pos(), "exported %s %s lacks a doc comment", d.Tok, n.Name)
				}
			}
		}
	}
}

// exportedReceiver reports whether a method's receiver type is
// exported (functions have no receiver and always count).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr: // generic receiver
			typ = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

// funcLabel names a func or method for the diagnostic.
func funcLabel(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return "func " + d.Name.Name
	}
	return "method " + d.Name.Name
}
