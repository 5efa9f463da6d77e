// Package locksafety flags blocking work performed while a mutex is
// held. The serve and telemetry registries sit on the request path of
// every forecast query: a registry mutex held across a rank barrier, a
// channel handoff, or an HTTP response write couples lock hold time to
// the slowest rank or the slowest client, and under elastic resize that
// is how a stalled peer walks a deadline miss up into a daemon-wide
// stall. The fix is always the same — copy what you need under the
// lock, release, then block.
//
// The analysis is function-local and block-scoped, in the family of
// sendownership: a call to mu.Lock()/mu.RLock() on a sync.Mutex or
// sync.RWMutex opens a held window that closes at the matching
// mu.Unlock()/mu.RUnlock() (anywhere in a later statement) or, for
// defer mu.Unlock(), at the end of the block. Inside the window these
// are reported:
//
//   - channel sends and receives (select with a default clause is
//     exempt — that is the documented non-blocking pattern);
//   - calls to blocking collectives and waits by name: WaitAll*,
//     Barrier*, ISend, Recv, and sync Wait (WaitGroup/Cond);
//   - time.Sleep;
//   - http.ResponseWriter Write/WriteHeader — handler bodies must not
//     stream while holding a registry lock.
//
// Function literals and go statements inside the window are skipped:
// they run on their own goroutine (or later), not under this lock.
package locksafety

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"gristgo/internal/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "locksafety",
	Doc:  "forbid blocking calls (collectives, channel ops, sleeps, HTTP writes) while a sync.Mutex/RWMutex is held",
	Run:  run,
}

// blockingNames are method names treated as blocking regardless of
// receiver package: the comm collectives and waits.
var blockingNames = map[string]bool{
	"WaitAll":         true,
	"WaitAllDeadline": true,
	"WaitAllContext":  true,
	"Barrier":         true,
	"BarrierDeadline": true,
	"BarrierContext":  true,
	"ISend":           true,
	"Recv":            true,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		lint.StmtLists(f, func(stmts []ast.Stmt) { checkBlock(pass, stmts) })
	}
	return nil
}

// lockCall matches expr as a Lock/RLock or Unlock/RUnlock call on a
// sync mutex and returns the rendered receiver and whether it acquires.
func lockCall(info *types.Info, call *ast.CallExpr) (recv string, acquire bool, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return "", false, false
	}
	tv, okT := info.Types[sel.X]
	if !okT || tv.Type == nil || !isSyncMutex(tv.Type) {
		return "", false, false
	}
	return types.ExprString(sel.X), acquire, true
}

func isSyncMutex(t types.Type) bool {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// checkBlock scans one statement list for held windows.
func checkBlock(pass *lint.Pass, stmts []ast.Stmt) {
	info := pass.TypesInfo
	for i, st := range stmts {
		// Acquisitions in the straight-line part of this statement. A
		// following defer mu.Unlock() keeps the window open to block
		// end, which the scan below already assumes when no inline
		// unlock is found.
		var acquired []string
		lint.StraightLine(st, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if recv, acq, ok := lockCall(info, call); ok && acq {
				acquired = append(acquired, recv)
			}
		})
		for _, recv := range acquired {
			scanHeld(pass, stmts[i+1:], recv)
		}
	}
}

// scanHeld walks the statements following an acquisition of recv and
// reports blocking constructs until recv's unlock.
func scanHeld(pass *lint.Pass, rest []ast.Stmt, recv string) {
	info := pass.TypesInfo
	end := token.NoPos // position of the matching unlock, once found
	for _, st := range rest {
		// Find an unlock of recv anywhere in this statement (not
		// deferred — a deferred unlock keeps the window open).
		ast.Inspect(st, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.DeferStmt, *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.CallExpr:
				if r, acq, ok := lockCall(info, x); ok && !acq && r == recv {
					if !end.IsValid() || x.Pos() < end {
						end = x.Pos()
					}
				}
			}
			return true
		})
		reportBlocking(pass, st, recv, end)
		if end.IsValid() {
			return
		}
	}
}

// reportBlocking flags blocking constructs in st that occur before
// limit (NoPos = no limit).
func reportBlocking(pass *lint.Pass, st ast.Stmt, recv string, limit token.Pos) {
	info := pass.TypesInfo
	before := func(p token.Pos) bool { return !limit.IsValid() || p < limit }
	report := func(p token.Pos, what string) {
		if before(p) {
			pass.Reportf(p, "%s while %s is held; copy under the lock, release, then block", what, recv)
		}
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false // runs on its own goroutine / later
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				report(x.Pos(), "blocking select")
			}
			// Clause bodies still run under the lock either way.
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, s := range cc.Body {
						ast.Inspect(s, visit)
					}
				}
			}
			return false
		case *ast.SendStmt:
			report(x.Arrow, "channel send")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				report(x.OpPos, "channel receive")
			}
		case *ast.CallExpr:
			if what := blockingCall(info, x); what != "" {
				report(x.Pos(), what)
			}
		}
		return true
	}
	ast.Inspect(st, visit)
}

// blockingCall classifies a call as blocking, returning a description
// or "".
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	name := fn.Name()
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	switch {
	case pkgPath == "time" && name == "Sleep":
		return "time.Sleep"
	case blockingNames[name]:
		return "blocking collective " + types.ExprString(sel.X) + "." + name
	case pkgPath == "sync" && name == "Wait" && !recvIsCond(sig):
		// sync.Cond.Wait is exempt: its contract REQUIRES the mutex held
		// (Wait releases and reacquires it) — that is the condition
		// variable pattern, not a lock-ordering bug.
		return "sync wait " + types.ExprString(sel.X) + ".Wait"
	case (name == "Write" || name == "WriteHeader") && sig != nil && recvIsResponseWriter(sig):
		return "HTTP response " + name
	}
	return ""
}

// recvIsCond reports whether the method's receiver is sync.Cond.
func recvIsCond(sig *types.Signature) bool {
	if sig == nil || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Name() == "Cond" && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync"
}

// recvIsResponseWriter reports whether the method's receiver is
// net/http.ResponseWriter.
func recvIsResponseWriter(sig *types.Signature) bool {
	recv := sig.Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "ResponseWriter" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "net/http")
}
