// Package epochsafety guards the elastic-membership generation
// discipline. A resize retires a whole generation of derived objects at
// once: comm.Layout (neighbor tables), partition.DistPlan (rank→shard
// ownership) and cached index sets are all functions of one
// Decomposition, and the moment SwapLayout, SetPlan or Redistribute
// installs the next generation, every value derived from the previous
// one silently describes ranks that may no longer exist. Using a stale
// layout after a shrink is the bug class behind ghost-neighbor sends
// and double-owned shards — it type-checks, and on a cluster that never
// resizes it even works.
//
// The analyzer is a straight-line, per-block scan (the same shape as
// sendownership): within a block it tracks variables of the retirable
// named types (Layout, DistPlan, IndexSet, pointer-wrapped or not,
// plus function parameters of those types). At a call to a retiring
// method —
//
//	ex.SwapLayout(newLayout)
//	store.SetPlan(newPlan)
//	store.Redistribute(epoch, step, newPlan)
//
// — every tracked variable last bound before the new generation was
// (the binding of the call's retirable argument roots, or the call
// itself when the argument is not a block-local variable) is marked
// retired; any later use in the block is reported. Rebinding a retired
// variable (x = ..., *p = ...) un-retires it: that is exactly the
// rebuild-from-the-new-generation fix.
//
// A second, independent rule covers checkpoint manifests: a keyed
// composite literal of a struct that declares both Gen and Epoch fields
// must not set Epoch while omitting Gen — a manifest without its
// generation stamp would, after rollback, alias shards from whichever
// generation happens to share the epoch number.
package epochsafety

import (
	"go/ast"
	"go/types"

	"gristgo/internal/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "epochsafety",
	Doc:  "forbid use of layouts/plans/index sets after SwapLayout/SetPlan/Redistribute retires their generation, and Gen-less manifest literals",
	Run:  run,
}

// retirableTypes are the named types derived from one decomposition
// generation.
var retirableTypes = map[string]bool{
	"Layout":   true,
	"DistPlan": true,
	"IndexSet": true,
}

// retiringMethods install the next generation, retiring the previous.
var retiringMethods = map[string]bool{
	"SwapLayout":   true,
	"SetPlan":      true,
	"Redistribute": true,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			params := paramVars(pass.TypesInfo, fd)
			ast.Inspect(fd, func(n ast.Node) bool {
				switch b := n.(type) {
				case *ast.BlockStmt:
					checkBlock(pass, b.List, params)
				case *ast.CaseClause:
					checkBlock(pass, b.Body, params)
				case *ast.CommClause:
					checkBlock(pass, b.Body, params)
				case *ast.CompositeLit:
					checkManifestLit(pass, b)
				}
				return true
			})
		}
	}
	return nil
}

// paramVars collects the function's parameters (and receiver) of
// retirable type: in scope for the whole body without a block-local
// binding, so they are tracked even when first mentioned after the
// retiring call.
func paramVars(info *types.Info, fd *ast.FuncDecl) map[*types.Var]string {
	out := make(map[*types.Var]string)
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if v, ok := info.Defs[name].(*types.Var); ok && isRetirable(v.Type()) {
					out[v] = name.Name
				}
			}
		}
	}
	collect(fd.Recv)
	if fd.Type.Params != nil {
		collect(fd.Type.Params)
	}
	return out
}

// checkBlock scans one statement list. State is per-block: a retiring
// call only retires what this block can see, which keeps the analysis
// obvious at the cost of missing cross-block flows.
func checkBlock(pass *lint.Pass, stmts []ast.Stmt, params map[*types.Var]string) {
	info := pass.TypesInfo
	lastBind := make(map[*types.Var]int)
	mentioned := make(map[*types.Var]bool)

	for i, st := range stmts {
		// Retiring calls in the straight-line part of this statement
		// (nested blocks run their own scan).
		for _, rc := range retireCallsIn(info, st) {
			exempt := make(map[*types.Var]bool)
			cutoff := i
			for _, root := range rc.argRoots {
				exempt[root] = true
				if bi, ok := lastBind[root]; ok && bi < cutoff {
					cutoff = bi
				}
			}
			retired := make(map[*types.Var]bool)
			for v := range mentioned {
				if !exempt[v] && bindOf(lastBind, v) < cutoff {
					retired[v] = true
				}
			}
			for v := range lastBind {
				if !exempt[v] && lastBind[v] < cutoff {
					retired[v] = true
				}
			}
			for v := range params {
				if !exempt[v] && bindOf(lastBind, v) < cutoff {
					retired[v] = true
				}
			}
			if len(retired) > 0 {
				scanAfterRetire(pass, stmts[i+1:], retired, rc.name)
			}
		}
		// Update bindings and mentions from this statement.
		lint.StraightLine(st, func(n ast.Node) {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, l := range x.Lhs {
					if v := rootVar(info, l); v != nil && isRetirable(v.Type()) {
						lastBind[v] = i
					}
				}
			case *ast.ValueSpec:
				for _, name := range x.Names {
					if v, ok := info.Defs[name].(*types.Var); ok && isRetirable(v.Type()) {
						lastBind[v] = i
					}
				}
			case *ast.Ident:
				if v, ok := info.Uses[x].(*types.Var); ok && isRetirable(v.Type()) {
					mentioned[v] = true
				}
			}
		})
	}
}

// bindOf returns v's last binding index in this block, -1 when bound
// outside it (parameter, outer block).
func bindOf(m map[*types.Var]int, v *types.Var) int {
	if i, ok := m[v]; ok {
		return i
	}
	return -1
}

// retireCall is one resolved retiring call: the method name and the
// root variables of its retirable-typed arguments (the new generation).
type retireCall struct {
	name     string
	argRoots []*types.Var
}

// retireCallsIn finds retiring calls in the straight-line part of st.
func retireCallsIn(info *types.Info, st ast.Stmt) []retireCall {
	var out []retireCall
	lint.StraightLine(st, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !retiringMethods[sel.Sel.Name] {
			return
		}
		if _, ok := info.Uses[sel.Sel].(*types.Func); !ok {
			return
		}
		rc := retireCall{name: sel.Sel.Name}
		for _, arg := range call.Args {
			if v := rootVar(info, arg); v != nil && isRetirable(v.Type()) {
				rc.argRoots = append(rc.argRoots, v)
			}
		}
		if v := rootVar(info, sel.X); v != nil {
			rc.argRoots = append(rc.argRoots, v)
		}
		out = append(out, rc)
	})
	return out
}

// scanAfterRetire reports uses of retired variables in the rest of the
// block. A rebind (x = ..., *x = ...) un-retires without a report —
// the variable now holds the new generation.
func scanAfterRetire(pass *lint.Pass, rest []ast.Stmt, retired map[*types.Var]bool, callName string) {
	info := pass.TypesInfo
	report := func(id *ast.Ident, v *types.Var) {
		pass.Reportf(id.Pos(),
			"%s was derived from a decomposition generation retired by %s above; rebuild it from the new layout/plan before use",
			id.Name, callName)
		delete(retired, v)
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if len(retired) == 0 {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, r := range x.Rhs {
				ast.Inspect(r, visit)
			}
			for _, l := range x.Lhs {
				if v, plain := plainTarget(info, l); v != nil && retired[v] {
					if plain {
						delete(retired, v) // rebound to the new generation
					} else {
						// used as part of a larger lvalue (m[old.R] = ...)
						ast.Inspect(l, visit)
					}
				} else {
					ast.Inspect(l, visit)
				}
			}
			return false
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok && retired[v] {
				report(x, v)
			}
		}
		return true
	}
	for _, st := range rest {
		ast.Inspect(st, visit)
	}
}

// plainTarget reports the root variable of an lvalue and whether the
// whole lvalue is just that variable (possibly dereferenced) — the
// forms whose assignment replaces the value outright.
func plainTarget(info *types.Info, e ast.Expr) (*types.Var, bool) {
	plain := true
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.StarExpr:
			e = x.X
			continue
		case *ast.IndexExpr:
			e = x.X
			plain = false
			continue
		case *ast.SelectorExpr:
			e = x.X
			plain = false
			continue
		}
		break
	}
	if id, ok := e.(*ast.Ident); ok {
		if v, ok := info.Uses[id].(*types.Var); ok {
			return v, plain
		}
		if v, ok := info.Defs[id].(*types.Var); ok {
			return v, plain
		}
	}
	return nil, false
}

// rootVar strips derefs, indexes, selectors and calls down to the
// expression's root variable, if any.
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.StarExpr:
			e = x.X
			continue
		case *ast.UnaryExpr:
			e = x.X
			continue
		case *ast.IndexExpr:
			e = x.X
			continue
		case *ast.SelectorExpr:
			e = x.X
			continue
		case *ast.CallExpr:
			e = x.Fun
			continue
		}
		break
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// isRetirable unwraps pointers and reports whether the named type is in
// the retirable set.
func isRetirable(t types.Type) bool {
	for {
		if p, ok := types.Unalias(t).(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := types.Unalias(t).(*types.Named)
	return ok && retirableTypes[named.Obj().Name()]
}

// checkManifestLit flags keyed composite literals of Gen+Epoch structs
// that set Epoch but omit Gen.
func checkManifestLit(pass *lint.Pass, cl *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[cl]
	if !ok || tv.Type == nil {
		return
	}
	st, ok := types.Unalias(tv.Type).Underlying().(*types.Struct)
	if !ok {
		return
	}
	hasGen, hasEpoch := false, false
	for i := 0; i < st.NumFields(); i++ {
		switch st.Field(i).Name() {
		case "Gen":
			hasGen = true
		case "Epoch":
			hasEpoch = true
		}
	}
	if !hasGen || !hasEpoch || len(cl.Elts) == 0 {
		return
	}
	setsEpoch, setsGen := false, false
	for _, e := range cl.Elts {
		kv, ok := e.(*ast.KeyValueExpr)
		if !ok {
			return // positional literal: every field present
		}
		if id, ok := kv.Key.(*ast.Ident); ok {
			switch id.Name {
			case "Epoch":
				setsEpoch = true
			case "Gen":
				setsGen = true
			}
		}
	}
	if setsEpoch && !setsGen {
		pass.Reportf(cl.Pos(),
			"manifest literal sets Epoch but omits Gen; after a rollback this manifest would alias shards from whichever generation shares the epoch number")
	}
}
