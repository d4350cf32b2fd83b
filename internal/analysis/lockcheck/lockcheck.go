// Package lockcheck enforces the *Locked naming discipline that guards
// every one-lock batch commit (DESIGN.md §3.3): a function whose name
// ends in "Locked" asserts "the caller holds the owning mutex", so it
// may only be called from another *Locked function or from a function
// that demonstrably acquires a lock in its own body — and it must
// never itself call Lock on the mutex the suffix refers to (the
// receiver's "mu" field by repo convention), which would self-deadlock.
//
// Audited call sites that hold the lock by construction but cannot
// show it syntactically (e.g. adapter methods invoked by the engine
// only under the runtime lock) carry //causalgc:allow-locked-call with
// a justification.
//
// The sharded engine adds a stricter sub-convention (DESIGN.md §3.4):
// a function whose name ends in "ShardLocked" runs under the owning
// shard's mutex, and shard mutexes are taken one at a time. So a call
// x.fooShardLocked(...) must come from a scope that demonstrably holds
// x.mu — either x.mu.Lock() appears earlier in the scope, or the
// enclosing function is a *Locked method on x itself — and the scope
// must not hold any other tracked "mu" at the call (the deadlock-order
// rule: entering a shard while holding a sibling inverts the ascending
// acquisition order of the stop-the-world paths). Functions ending in
// "AllLocked" are the audited composers that hold every shard's lock
// at once and are exempt; anything else that holds the lock by
// construction carries //causalgc:allow-shard-locked-call.
package lockcheck

import (
	"go/ast"
	"strings"

	"causalgc/internal/analysis"
)

// Analyzer is the lockcheck instance the module gate runs.
var Analyzer = New()

// New returns the lockcheck analyzer. It is purely syntactic: the
// conventions it checks are naming conventions.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "lockcheck",
		Doc:  "calls to *Locked functions must come from *Locked functions or lock-acquiring bodies; *Locked functions must not lock their own mutex; *ShardLocked calls require the owning shard's mutex and no sibling's",
		Run:  run,
	}
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// checkFunc walks one top-level function, tracking whether any
// enclosing scope is entitled to call *Locked functions.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	locked := strings.HasSuffix(fd.Name.Name, "Locked")
	qualified := locked || acquiresLock(fd.Body)
	if locked {
		checkSelfDeadlock(pass, fd)
	}
	walkCalls(pass, fd.Body, fd.Name.Name, qualified)
	checkShardDiscipline(pass, fd)
}

// checkShardDiscipline enforces the per-shard mutex convention: a call
// x.fooShardLocked(...) needs x's own mutex held — shown by an earlier
// x.mu.Lock() in the scope, or by the enclosing function being a
// *Locked method on x — and must not be made while any other tracked
// "mu" is held (shard locks are taken one at a time; only the
// *AllLocked stop-the-world composers hold several). It is a linear
// abstract walk over the body tracking the set of held "mu" owners:
// Lock adds, Unlock removes, a deferred Unlock keeps the lock held to
// the end of the scope, and a closure inherits the locks of its
// creation site (matching walkCalls' treatment of commit-window
// closures).
func checkShardDiscipline(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	w := &shardWalker{
		pass:      pass,
		funcName:  name,
		recv:      receiverName(fd),
		allLocked: strings.HasSuffix(name, "AllLocked"),
		shardFn:   strings.HasSuffix(name, "ShardLocked"),
	}
	held := map[string]bool{}
	if w.recv != "" && strings.HasSuffix(name, "Locked") {
		// The Locked suffix itself promises the receiver's mutex.
		held[w.recv] = true
	}
	w.walk(fd.Body, held)
}

// shardWalker carries the per-function context of checkShardDiscipline.
type shardWalker struct {
	pass      *analysis.Pass
	funcName  string
	recv      string
	allLocked bool
	shardFn   bool
}

func (w *shardWalker) walk(body ast.Node, held map[string]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			inherited := map[string]bool{}
			for k := range held {
				inherited[k] = true
			}
			w.walk(n.Body, inherited)
			return false
		case *ast.DeferStmt:
			// defer x.mu.Unlock() holds the lock to the end of the
			// scope: keep it in the held set.
			if owner, op := muOp(n.Call); owner != "" && (op == "Unlock" || op == "RUnlock") {
				return false
			}
			return true
		case *ast.CallExpr:
			if owner, op := muOp(n); owner != "" {
				switch op {
				case "Lock", "RLock", "TryLock":
					if w.shardFn && owner != w.recv && !w.pass.Allowed(n.Pos(), "shard-locked-call") {
						w.pass.Reportf(n.Pos(), "%s acquires %s.mu while its ShardLocked suffix says the owning shard's lock is held (shard locks are taken one at a time)", w.funcName, owner)
					}
					held[owner] = true
				case "Unlock", "RUnlock":
					delete(held, owner)
				}
				return true
			}
			callee := calleeName(n)
			if callee == "" || !strings.HasSuffix(callee, "ShardLocked") {
				return true
			}
			if w.allLocked || w.pass.Allowed(n.Pos(), "shard-locked-call") {
				return true
			}
			owner := w.recv
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				owner = exprText(sel.X)
			}
			if owner == "" {
				// An unrenderable receiver (call result, etc.) is outside
				// the convention's vocabulary; walkCalls still applies.
				return true
			}
			if !held[owner] {
				w.pass.Reportf(n.Pos(), "call to %s from %s without holding %s.mu: *ShardLocked needs the owning shard's lock (annotate audited sites with //causalgc:allow-shard-locked-call)", callee, w.funcName, owner)
			}
			for h := range held {
				if h != owner {
					w.pass.Reportf(n.Pos(), "call to %s while holding %s.mu: a *ShardLocked method must not be entered while another shard's lock is held (only *AllLocked composers hold several)", callee, h)
				}
			}
		}
		return true
	})
}

// muOp recognizes <owner>.mu.<op>() for the mutex methods the held-set
// tracks and returns the owner's textual form and the operation, or
// ("", "") for any other call.
func muOp(call *ast.CallExpr) (owner, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	mu, ok := sel.X.(*ast.SelectorExpr)
	if !ok || mu.Sel.Name != "mu" {
		return "", ""
	}
	if root := exprText(mu.X); root != "" {
		return root, sel.Sel.Name
	}
	return "", ""
}

// exprText renders the simple receiver expressions the shard walker
// compares — identifiers, field selections, and index expressions —
// and returns "" for anything more exotic.
func exprText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.ParenExpr:
		return exprText(x.X)
	case *ast.SelectorExpr:
		if base := exprText(x.X); base != "" {
			return base + "." + x.Sel.Name
		}
	case *ast.IndexExpr:
		base, idx := exprText(x.X), exprText(x.Index)
		if base != "" && idx != "" {
			return base + "[" + idx + "]"
		}
	case *ast.BasicLit:
		return x.Value
	}
	return ""
}

// walkCalls reports calls to *Locked callees from unqualified scopes.
// Function literals re-evaluate qualification on their own body but
// inherit it from enclosing scopes: a closure created under the lock
// is treated as running under it, which matches how the runtime's
// commit windows use closures.
func walkCalls(pass *analysis.Pass, body ast.Node, funcName string, qualified bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			walkCalls(pass, n.Body, funcName, qualified || acquiresLock(n.Body))
			return false
		case *ast.CallExpr:
			name := calleeName(n)
			if name == "" || !strings.HasSuffix(name, "Locked") {
				return true
			}
			if qualified || pass.Allowed(n.Pos(), "locked-call") {
				return true
			}
			pass.Reportf(n.Pos(), "call to %s from %s, which neither ends in Locked nor acquires a lock in its body (annotate audited sites with //causalgc:allow-locked-call)", name, funcName)
		}
		return true
	})
}

// checkSelfDeadlock flags <recv>.mu.Lock()/RLock() (or Lock on the
// receiver itself, for embedded mutexes) inside a *Locked method: the
// suffix promises that lock is already held.
func checkSelfDeadlock(pass *analysis.Pass, fd *ast.FuncDecl) {
	recv := receiverName(fd)
	if recv == "" {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// A closure may run after the locked section returns;
			// locking there is the closure's business.
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock" && sel.Sel.Name != "TryLock") {
			return true
		}
		if !isOwnMutex(sel.X, recv) {
			return true
		}
		pass.Reportf(call.Pos(), "%s calls %s on the mutex its Locked suffix says is already held (self-deadlock)", fd.Name.Name, sel.Sel.Name)
		return true
	})
}

// isOwnMutex reports whether expr is the receiver's guarding mutex:
// the receiver itself (embedded mutex) or its conventional "mu" field.
// Locking a different field is allowed — the Locked suffix only speaks
// for the owning mutex.
func isOwnMutex(expr ast.Expr, recv string) bool {
	switch x := expr.(type) {
	case *ast.Ident:
		return x.Name == recv
	case *ast.SelectorExpr:
		root, ok := x.X.(*ast.Ident)
		return ok && root.Name == recv && x.Sel.Name == "mu"
	}
	return false
}

// acquiresLock reports whether body (excluding nested function
// literals) contains a call to a Lock/RLock/TryLock method.
func acquiresLock(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Lock", "RLock", "TryLock":
				found = true
			}
		}
		return true
	})
	return found
}

// calleeName extracts the called function's bare name, looking through
// selector chains and conversions like (*Runtime)(s).emitLocked(...).
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// receiverName returns the name of fd's receiver variable, if any.
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}
