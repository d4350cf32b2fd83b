package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
	"testing"

	"causalgc/internal/analysis"
)

// surfaceAllow lists the internal functions kept although no non-test
// code in the module or in bench/ refers to them. An entry names one
// function ("pkg.Func"), one method ("pkg.Type.Method") or a whole
// package ("pkg"), and what it is kept for. Functions an entry keeps
// keep their own callees.
var surfaceAllow = []struct{ key, reason string }{
	{"causalgc/internal/analysis/analysistest", "the golden-package harness the analyzers' own tests run"},
	{"causalgc/internal/netsim.Sim.SetPartition", "fault injection: the partition scenarios of internal/sim"},
	{"causalgc/internal/netsim.Sim.SetDropKindProb", "fault injection: per-kind loss in internal/sim's ack, Ē and hint-leak scenarios"},
	{"causalgc/internal/netsim.Stats.Reset", "lets a test count one phase's traffic on its own"},
	{"causalgc/internal/sim", "the deterministic whole-system harness: its batteries and the experiments of DESIGN.md §4 are tests"},
	{"causalgc/internal/vclock.HintSet.Has", "core's and sim's tests read hint membership through it"},
	{"causalgc/internal/vclock.Vector.Equal", "wire's snapshot tests and core's bundle tests compare vectors with it"},
}

// TestNoDeadSurface reports every function and method declared in a
// non-test file under internal/ that no non-test file of the module or
// of bench/ refers to, directly or through another live function: a
// function only tests reach is surface the product does not carry.
// Counted as referred to: String and Error, and any method whose name
// belongs to an interface the non-test code refers to (Loader.Import
// satisfies types.Importer). The rest either gets deleted, moves to
// its package's export_test.go, or is listed in surfaceAllow.
//
// Packages are type-checked one at a time, so a function is keyed by
// import path, receiver type name and name rather than by its
// types.Object.
func TestNoDeadSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short runs")
	}
	_, modPath, err := findModule()
	if err != nil {
		t.Fatal(err)
	}
	units, err := load([]string{"./..."})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	s := scanSurface(units, modPath+"/internal/")

	var keep []string
	for _, a := range surfaceAllow {
		keep = append(keep, a.key)
	}
	deadAll := s.dead(nil)
	for _, a := range surfaceAllow {
		if !slices.ContainsFunc(deadAll, func(k string) bool { return under(k, a.key) }) {
			t.Errorf("surfaceAllow: %s keeps nothing the module leaves dead; delete the entry", a.key)
		}
	}
	for _, k := range s.dead(keep) {
		t.Errorf("%s: %s: no non-test caller in the module or bench/", s.decls[k].pos, k)
	}
}

// surface is the reference graph of the module's non-test code.
type surface struct {
	decls map[string]surfaceDecl // internal non-test functions by key
	refs  map[string][]string    // an internal function's references
	roots map[string]bool        // referred to from outside every internal function
	kept  map[string]bool        // method names String, Error and every referred-to interface's
}

type surfaceDecl struct {
	pos    token.Position
	method string // the name, for a method; "" for a function
}

func scanSurface(units []*analysis.Unit, internalPrefix string) *surface {
	s := &surface{
		decls: map[string]surfaceDecl{},
		refs:  map[string][]string{},
		roots: map[string]bool{},
		kept:  map[string]bool{"String": true, "Error": true},
	}
	for _, u := range units {
		internal := strings.HasPrefix(u.Path+"/", internalPrefix)
		for _, f := range u.Files {
			if strings.HasSuffix(u.Filename(f), "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				key, decl := declKey(u, d)
				if !internal || key == "" {
					s.scan(u.Info, d, func(k string) { s.roots[k] = true })
					continue
				}
				s.decls[key] = decl
				s.scan(u.Info, d, func(k string) { s.refs[key] = append(s.refs[key], k) })
			}
		}
	}
	return s
}

// declKey returns the key of a function or method declaration, or ""
// for any other declaration and for init, which the program calls.
func declKey(u *analysis.Unit, d ast.Decl) (string, surfaceDecl) {
	fd, ok := d.(*ast.FuncDecl)
	if !ok || (fd.Recv == nil && fd.Name.Name == "init") {
		return "", surfaceDecl{}
	}
	fn, ok := u.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return "", surfaceDecl{}
	}
	decl := surfaceDecl{pos: u.Fset.Position(fd.Pos())}
	if fd.Recv != nil {
		decl.method = fd.Name.Name
	}
	return funcKey(fn), decl
}

// scan reports every function n refers to and records the method names
// of every interface type it meets.
func (s *surface) scan(info *types.Info, n ast.Node, ref func(string)) {
	ast.Inspect(n, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[e]; ok {
			s.keepInterface(tv.Type)
		}
		id, ok := e.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		s.keepInterface(obj.Type())
		if fn, ok := obj.(*types.Func); ok {
			sig := fn.Type().(*types.Signature)
			for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
				for i := 0; i < tup.Len(); i++ {
					s.keepInterface(tup.At(i).Type())
				}
			}
			if k := funcKey(fn.Origin()); k != "" {
				ref(k)
			}
		}
		return true
	})
}

func (s *surface) keepInterface(t types.Type) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			s.kept[it.Method(i).Name()] = true
		}
	}
}

// funcKey names fn by import path, receiver type name and name.
func funcKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	t := types.Unalias(recv.Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
	}
	return "" // a method of an unnamed interface
}

// dead returns the declared keys that neither the roots, the kept
// method names nor the keep entries reach, sorted.
func (s *surface) dead(keep []string) []string {
	live := map[string]bool{}
	var queue []string
	mark := func(k string) {
		if !live[k] {
			live[k] = true
			queue = append(queue, k)
		}
	}
	for k := range s.roots {
		mark(k)
	}
	for k, d := range s.decls {
		if (d.method != "" && s.kept[d.method]) || underAny(k, keep) {
			mark(k)
		}
	}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		for _, r := range s.refs[k] {
			mark(r)
		}
	}
	var dead []string
	for k := range s.decls {
		if !live[k] {
			dead = append(dead, k)
		}
	}
	sort.Strings(dead)
	return dead
}

// under reports whether key is entry or lies under it: an entry names
// a function, a type's methods or a package.
func under(key, entry string) bool {
	return key == entry || strings.HasPrefix(key, entry+".")
}

// underAny reports whether key lies under one of entries.
func underAny(key string, entries []string) bool {
	for _, e := range entries {
		if under(key, e) {
			return true
		}
	}
	return false
}
