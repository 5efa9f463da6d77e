// Package durability polices the crash-consistency paths. The
// checkpoint protocol is only as strong as its weakest error check: an
// fsync whose error is dropped turns "committed" into "probably
// committed", a rename error swallowed in an export path publishes a
// manifest that points at nothing, and a CRC mismatch ignored on read
// replays garbage into the model. A function annotated
//
//	//grist:durable
//
// in its doc comment — the atomic-replace helper, shard writes, manifest
// commit, redistribution, the restart file — and every same-package
// function it statically calls must account for every error:
//
//   - a call whose error result is discarded outright (expression
//     statement) is reported;
//   - an error result assigned to the blank identifier is reported;
//   - a `:=` that binds a fresh variable named err while an outer err
//     is in scope is reported, unless it is the init clause of an
//     if/for/switch (the idiomatic scoped check) — shadowing on a
//     durable path is how a checked-looking commit returns nil after a
//     failed sync.
//
// Deliberate best-effort cleanup is exempt: deferred calls (deferred
// Close after the explicit Close-and-check is cleanup, not commit),
// goroutine launches, and os.Remove/os.RemoveAll (or vfs.FS.Remove) of
// temporaries.
//
// Durable paths that write through the injectable filesystem seam
// (internal/vfs) are additionally held to the commit ordering: a
// Rename that publishes a file created in the same function must have
// a Sync between the create and the rename. Rename-before-sync is the
// classic torn commit — the rename can reach the journal before the
// data blocks do, and a crash then exposes a fully published name
// whose bytes never hit disk.
package durability

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"gristgo/internal/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "durability",
	Doc:  "forbid discarded or shadowed errors in //grist:durable functions (fsync/rename/CRC/manifest-commit paths)",
	Run:  run,
}

const directive = "//grist:durable"

// bestEffort lists callees whose errors a durable path may
// legitimately drop: removing a temporary that was never published.
// vfs.FS.Remove is the injectable-filesystem twin of os.Remove — the
// atomic-write helpers discard its error on their failure paths, where
// the original error is already on its way to the caller.
var bestEffort = map[string]bool{
	"os.Remove":     true,
	"os.RemoveAll":  true,
	"vfs.FS.Remove": true,
}

// createLabels and renameLabels anchor the sync-before-rename rule:
// a durable function that calls a create and later a rename with no
// Sync in between is publishing unsynced bytes. Matching is by the
// calleeLabel form (package.Type.Method), so the rule covers both the
// os package and the vfs seam every durable path now routes through.
var createLabels = map[string]bool{
	"os.Create":         true,
	"os.CreateTemp":     true,
	"vfs.FS.Create":     true,
	"vfs.FS.CreateTemp": true,
}

var renameLabels = map[string]bool{
	"os.Rename":     true,
	"vfs.FS.Rename": true,
}

var errorType = types.Universe.Lookup("error").Type()

func run(pass *lint.Pass) error {
	// Same-package callees inherit the durable obligation.
	for _, fn := range lint.NewReach(pass, directive, nil).Reached() {
		checkFunc(pass, fn.Decl)
	}
	return nil
}

// checkFunc applies the three rules to one durable function body.
func checkFunc(pass *lint.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return false // best-effort cleanup / detached work
		case *ast.ExprStmt:
			call, ok := x.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pos, callName := discardedError(info, call); pos.IsValid() {
				pass.Reportf(pos,
					"error result of %s is discarded on durable path %s; a dropped error here turns committed into probably-committed",
					callName, name)
			}
		case *ast.AssignStmt:
			checkAssign(pass, x, name)
		}
		return true
	})
	checkSyncBeforeRename(pass, fd)
}

// checkSyncBeforeRename flags the rename-before-sync torn commit: a
// durable function that creates a file and renames one into place with
// no Sync call between the latest create and the rename publishes a
// name whose bytes may not be on disk. The check is per-function and
// source-ordered — helpers that create-and-sync for a caller that
// renames are split across functions and stay out of scope, which
// keeps the rule free of false positives at the cost of missing
// cross-function splits.
func checkSyncBeforeRename(pass *lint.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	type labeled struct {
		pos   token.Pos
		label string
	}
	var calls []labeled
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return false // cleanup/detached, same as the error rules
		}
		if c, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, labeled{c.Pos(), calleeLabel(info, c)})
		}
		return true
	})
	sort.Slice(calls, func(i, j int) bool { return calls[i].pos < calls[j].pos })
	for i, c := range calls {
		if !renameLabels[c.label] {
			continue
		}
		created := -1
		for j := 0; j < i; j++ {
			if createLabels[calls[j].label] {
				created = j
			}
		}
		if created < 0 {
			continue
		}
		synced := false
		for j := created + 1; j < i; j++ {
			if strings.HasSuffix(calls[j].label, ".Sync") {
				synced = true
				break
			}
		}
		if !synced {
			pass.Reportf(c.pos,
				"%s on durable path %s with no Sync between create and rename; rename-before-sync publishes a name whose bytes may not be on disk",
				c.label, fd.Name.Name)
		}
	}
}

// discardedError reports whether call returns an error that the
// expression statement drops, and where to report it.
func discardedError(info *types.Info, call *ast.CallExpr) (token.Pos, string) {
	sig := callSignature(info, call)
	if sig == nil {
		return token.NoPos, ""
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errorType) {
			label := calleeLabel(info, call)
			if bestEffort[label] {
				return token.NoPos, ""
			}
			return call.Pos(), label
		}
	}
	return token.NoPos, ""
}

// checkAssign flags error results assigned to _ and fresh err variables
// shadowing an outer err outside an if/for/switch init clause.
func checkAssign(pass *lint.Pass, as *ast.AssignStmt, fnName string) {
	info := pass.TypesInfo
	// _ in an error position.
	for i, l := range as.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name != "_" {
			continue
		}
		t := lhsType(info, as, i)
		if t != nil && types.Identical(t, errorType) {
			pass.Reportf(l.Pos(),
				"error result assigned to _ on durable path %s; check it or name the reason it cannot fail",
				fnName)
		}
	}
	// Fresh err shadowing an outer err.
	if as.Tok != token.DEFINE || initClause(pass, as) {
		return
	}
	for _, l := range as.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name != "err" {
			continue
		}
		obj, fresh := info.Defs[id]
		if !fresh || obj == nil {
			continue
		}
		scope := pass.Pkg.Scope().Innermost(id.Pos())
		if scope == nil {
			continue
		}
		if outer := lookupOuter(scope, obj, id.Pos()); outer != nil {
			pass.Reportf(id.Pos(),
				"err shadows an outer err on durable path %s; the outer error a caller sees stays nil after this block fails",
				fnName)
		}
	}
}

// lookupOuter finds a different variable named err in an enclosing
// scope.
func lookupOuter(scope *types.Scope, inner types.Object, pos token.Pos) types.Object {
	s := scope.Parent()
	for s != nil {
		if obj := s.Lookup("err"); obj != nil && obj != inner {
			if v, ok := obj.(*types.Var); ok && v.Pos() < pos {
				return obj
			}
		}
		s = s.Parent()
	}
	return nil
}

// initClause reports whether as is the init statement of an if, for or
// switch — the idiomatic scoped error check, which shadows on purpose.
func initClause(pass *lint.Pass, as *ast.AssignStmt) bool {
	for _, f := range pass.Files {
		if f.Pos() <= as.Pos() && as.End() <= f.End() {
			found := false
			ast.Inspect(f, func(n ast.Node) bool {
				if found || n == nil || !(n.Pos() <= as.Pos() && as.End() <= n.End()) {
					return !found
				}
				switch x := n.(type) {
				case *ast.IfStmt:
					if x.Init == as {
						found = true
					}
				case *ast.ForStmt:
					if x.Init == as {
						found = true
					}
				case *ast.SwitchStmt:
					if x.Init == as {
						found = true
					}
				case *ast.TypeSwitchStmt:
					if x.Init == as {
						found = true
					}
				}
				return !found
			})
			return found
		}
	}
	return false
}

// lhsType resolves the type flowing into Lhs[i].
func lhsType(info *types.Info, as *ast.AssignStmt, i int) types.Type {
	if len(as.Rhs) == len(as.Lhs) {
		if tv, ok := info.Types[as.Rhs[i]]; ok {
			return tv.Type
		}
		return nil
	}
	// Multi-value: a single call/index/recv on the right.
	if len(as.Rhs) != 1 {
		return nil
	}
	tv, ok := info.Types[as.Rhs[0]]
	if !ok || tv.Type == nil {
		return nil
	}
	if tup, ok := tv.Type.(*types.Tuple); ok && i < tup.Len() {
		return tup.At(i).Type()
	}
	return nil
}

// callSignature resolves the called function's signature, nil for type
// conversions and built-ins.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := types.Unalias(tv.Type).Underlying().(*types.Signature)
	return sig
}

// calleeLabel renders pkg.Func, pkg.Type.Method or a best-effort
// expression string for messages and the bestEffort table.
func calleeLabel(info *types.Info, call *ast.CallExpr) string {
	obj := lint.CalleeObject(info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return types.ExprString(call.Fun)
	}
	return lint.FuncLabel(fn)
}
