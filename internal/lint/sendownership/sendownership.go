// Package sendownership enforces the transport buffer-ownership rule of
// the comm layer: a payload slice handed to Rank.ISend / Rank.Send is
// transport-owned for the rest of the communication round, and a buffer
// posted with Rank.IRecv belongs to the transport until its request
// completes. Touching either from the caller before a synchronization
// point is the aliasing hazard the halo layer's copy-on-send design
// exists to prevent — and the hazard returns the moment anyone swaps the
// in-process transport for a zero-copy one, so the discipline is
// enforced statically rather than left to the transport du jour.
//
// The check is function-local and syntactic about aliasing: after a
// statement that passes a trackable buffer expression (an identifier,
// selector chain, or index expression) to ISend/Send/IRecv, any further
// mention of that same expression in the following statements of the
// enclosing block is reported, until a synchronization call (Wait,
// WaitAll, Finish, Exchange, Barrier, Recv) is reached. Buffers that
// only exist as call results (e.g. ISend(q, tag, pack(pi))) cannot be
// misused by name and are not tracked.
//
// With the decomposition a run-time object, the analyzer also guards
// the layout handle the same way: HaloExchanger.SwapLayout rebinds the
// exchanger to a repartitioned decomposition, and calling it between
// Start and Finish mutates the index sets of an in-flight round — a
// runtime panic in the exchanger, reported statically here. The window
// opens at a Start call on an exchanger expression and closes at the
// next synchronization call on the same expression.
package sendownership

import (
	"go/ast"
	"go/types"

	"gristgo/internal/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "sendownership",
	Doc:  "report use of a payload slice after handing it to comm Send/ISend/IRecv and before the round completes",
	Run:  run,
}

// transferMethods maps the comm.Rank methods that transfer buffer
// ownership to the index of the buffer argument.
var transferMethods = map[string]int{
	"ISend": 2, // (to, tag, data)
	"Send":  2, // (to, tag, data)
	"IRecv": 2, // (from, tag, dst)
}

// syncMethods end the transport's ownership window.
var syncMethods = map[string]bool{
	"Wait":     true,
	"WaitAll":  true,
	"Finish":   true,
	"Exchange": true,
	"Barrier":  true,
	"Recv":     true,
}

// run scans every statement list in source order. For every transfer
// (or round start) found in the straight-line part of a statement, the
// remaining statements of the same list are scanned for mentions of the
// transferred buffer until a sync call shows up. Transfers inside nested
// lists (if/for/switch bodies, labeled or not) are scoped to their own
// list: a guard branch that sends and returns does not taint the
// fall-through path.
func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		lint.StmtLists(f, func(stmts []ast.Stmt) {
			for i, st := range stmts {
				lint.StraightLine(st, func(n ast.Node) {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return
					}
					name, recv, ok := rankMethod(pass.TypesInfo, call)
					if !ok {
						return
					}
					if argIdx, isTransfer := transferMethods[name]; isTransfer && len(call.Args) > argIdx {
						if s := trackable(call.Args[argIdx]); s != "" {
							scanAfter(pass, stmts[i+1:], transfer{expr: s, method: name})
						}
					}
					// A Start on a trackable exchanger expression opens an
					// in-flight-round window for its receiver.
					if s := trackable(recv); name == "Start" && s != "" {
						scanRoundAfter(pass, stmts[i+1:], s)
					}
				})
			}
		})
	}
	return nil
}

// scanRoundAfter walks the trailing statements of a Start call looking
// for a SwapLayout on the same exchanger, stopping at the first
// synchronization call on it (Finish/Exchange/Wait/WaitAll) or at a
// rebinding of the exchanger variable.
func scanRoundAfter(pass *lint.Pass, stmts []ast.Stmt, recv string) {
	done := false
	for _, st := range stmts {
		if done {
			return
		}
		ast.Inspect(st, func(n ast.Node) bool {
			if done {
				return false
			}
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, l := range as.Lhs {
					if trackable(l) == recv {
						done = true // exchanger rebound: the tracked round is gone
						return false
					}
				}
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, r, ok := rankMethod(pass.TypesInfo, call)
			if !ok || trackable(r) != recv {
				return true
			}
			if syncMethods[name] {
				done = true
				return false
			}
			if name == "SwapLayout" {
				pass.Reportf(call.Pos(),
					"%s.SwapLayout between Start and Finish mutates the halo layout of an in-flight round; complete the round (Finish/Exchange) before repartitioning",
					recv)
				done = true // one report per round is enough
				return false
			}
			return true
		})
	}
}

// transfer records one buffer handed to the transport.
type transfer struct {
	expr   string // printed form of the buffer expression
	method string
}

// scanAfter walks the trailing statements looking for mentions of the
// transferred buffer, stopping at the first synchronization call.
func scanAfter(pass *lint.Pass, stmts []ast.Stmt, tr transfer) {
	done := false
	for _, st := range stmts {
		if done {
			return
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			if done {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if name, _, ok := rankMethod(pass.TypesInfo, call); ok && syncMethods[name] {
					done = true
					return false
				}
			}
			// Rebinding the whole variable releases the tracked buffer:
			// the name no longer aliases the transport-owned memory.
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, r := range as.Rhs {
					ast.Inspect(r, visit)
				}
				for _, l := range as.Lhs {
					if trackable(l) == tr.expr {
						done = true
						return false
					}
					ast.Inspect(l, visit)
				}
				return false
			}
			if e, ok := n.(ast.Expr); ok && trackable(e) == tr.expr {
				pass.Reportf(n.Pos(),
					"%s is transport-owned after %s; reading or writing it before the round completes races a zero-copy transport (synchronize with Wait/WaitAll/Finish first)",
					tr.expr, tr.method)
				done = true // one report per transfer is enough
				return false
			}
			return true
		}
		ast.Inspect(st, visit)
	}
}

// rankMethod reports whether call invokes a method on comm.Rank (or a
// value of a type named Rank/HaloExchanger, so testdata fixtures work)
// and returns the method name and the receiver expression.
func rankMethod(info *types.Info, call *ast.CallExpr) (string, ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil, false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return "", nil, false
	}
	t := tv.Type
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return "", nil, false
	}
	switch named.Obj().Name() {
	case "Rank", "HaloExchanger":
		return sel.Sel.Name, sel.X, true
	}
	return "", nil, false
}

// trackable renders identifier/selector/index expressions to a stable
// string; anything else returns "".
func trackable(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := trackable(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.IndexExpr:
		base := trackable(x.X)
		idx := trackable(x.Index)
		if base == "" || idx == "" {
			return ""
		}
		return base + "[" + idx + "]"
	case *ast.BasicLit:
		return x.Value
	}
	return ""
}
