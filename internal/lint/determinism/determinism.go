// Package determinism enforces the bitwise-reproducibility discipline
// of the scaling argument: every rank must derive identical decisions
// from (seed, coordinates, epoch) alone, because the elastic membership
// agreement and rollback-and-replay recovery both assume any process
// can recompute the same answer communication-free. A function
// annotated
//
//	//grist:bitwise
//
// in its doc comment — the repartition path, checkpoint commit, the
// gather kernels, every EpochSeed consumer — and every function it
// statically calls must avoid the constructs whose results depend on
// scheduling, wall-clock, or Go's randomized map order:
//
//   - ranging over a map when the iteration order can escape (writes to
//     state declared outside the loop, calls, sends, returns) — iterate
//     a sorted key slice instead; collecting keys with the self-append
//     idiom `keys = append(keys, k)` is permitted, as the first half of
//     the collect-and-sort fix (the analyzer trusts the sort follows);
//   - wall-clock reads (time.Now, time.Since, time.Until) — telemetry
//     wrappers live in internal/telemetry, which is whitelisted as an
//     observability sidecar that never feeds model state;
//   - the global math/rand generators — internal/detrand is the single
//     sanctioned randomness source (seeded, coordinate-addressable);
//
// Propagation crosses package boundaries: analyzing a package exports a
// per-function determinism summary (a fact), and later packages —
// lint.Run analyzes in import dependency order — see their module-local
// callees' summaries, so a bitwise root in internal/core is checked
// through its calls into internal/partition without either package
// re-reading the other's source. Calls that cannot be resolved to a
// declaration (function values, interface methods, stdlib without
// facts) are not followed, as in hotpathalloc.
package determinism

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"gristgo/internal/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "determinism",
	Doc:  "forbid map-order, wall-clock and global-rand dependence in //grist:bitwise functions and their callees (cross-package)",
	Run:  run,
}

// directive marks a bitwise-critical function in its doc comment.
const directive = "//grist:bitwise"

// exemptCalleeSuffixes are packages whose calls are always treated as
// deterministic: detrand is the sanctioned randomness source, telemetry
// is the observability sidecar (spans and counters read the clock but
// never feed state back into the model).
var exemptCalleeSuffixes = []string{"internal/detrand", "internal/telemetry"}

func run(pass *lint.Pass) error {
	r := lint.NewReach(pass, directive, exemptCallee)

	// A nondeterminism fact for every declaration: later packages check
	// their bitwise paths' calls into this one against them.
	r.ExportFacts("is nondeterministic", func(fn *lint.ReachFunc) []lint.Diagnostic {
		return findings(pass.TypesInfo, fn.Decl.Body)
	})

	// Position-precise findings in every function reachable from a
	// //grist:bitwise root, and calls that cross into a package whose
	// summary is nondeterministic.
	for _, fn := range r.Reached() {
		name := fn.Decl.Name.Name
		for _, f := range fn.Findings {
			pass.Reportf(f.Pos, "%s in bitwise-critical %s", f.Message, name)
		}
		for _, c := range fn.Cross {
			if reason, ok := r.Fact(c.Fn); ok {
				pass.Reportf(c.Pos, "call to %s in bitwise-critical %s is nondeterministic: %s",
					lint.FuncLabel(c.Fn), name, reason)
			}
		}
	}
	return nil
}

// exemptCallee honors the whitelist.
func exemptCallee(fn *types.Func) bool {
	for _, suf := range exemptCalleeSuffixes {
		if strings.HasSuffix(fn.Pkg().Path(), suf) {
			return true
		}
	}
	return false
}

// findings walks one function body collecting its nondeterministic
// constructs.
func findings(info *types.Info, body *ast.BlockStmt) []lint.Diagnostic {
	var out []lint.Diagnostic
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			if isMapType(info, x.X) && orderEscapes(info, x) {
				out = append(out, lint.Diagnostic{
					Pos: x.Pos(),
					Message: fmt.Sprintf("map iteration order over %s escapes", types.ExprString(x.X)) +
						"; collect and sort the keys first so every rank walks the same sequence",
				})
			}
		case *ast.CallExpr:
			if msg := clockOrRand(info, x); msg != "" {
				out = append(out, lint.Diagnostic{Pos: x.Pos(), Message: msg})
			}
		}
		return true
	})
	return out
}

// clockOrRand describes call when it reads the wall clock or draws from
// a global math/rand generator, "" otherwise.
func clockOrRand(info *types.Info, call *ast.CallExpr) string {
	fn, ok := lint.CalleeObject(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return fmt.Sprintf("wall-clock read time.%s", fn.Name()) +
				"; bitwise paths must derive every decision from (seed, coordinates, epoch)"
		}
	case "math/rand", "math/rand/v2":
		// Only the global-generator draws (rand.Intn, rand.Float64, ...)
		// are nondeterministic; the New* constructors build explicitly
		// seeded generators, which are fine.
		if fn.Type().(*types.Signature).Recv() == nil && !strings.HasPrefix(fn.Name(), "New") {
			return fmt.Sprintf("global math/rand draw rand.%s", fn.Name()) +
				"; use internal/detrand, the sanctioned seeded source"
		}
	}
	return ""
}

// isMapType reports whether e's type is a map.
func isMapType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := types.Unalias(tv.Type).Underlying().(*types.Map)
	return isMap
}

// orderEscapes reports whether the range body can observe or leak the
// iteration order: any write to a variable declared outside the loop,
// any call other than the order-insensitive builtins (len, cap, min,
// max, delete of the ranged key), any channel operation, return, defer
// or goroutine launch. A body that only fills loop-local state cannot
// fork ranks on map order.
func orderEscapes(info *types.Info, rs *ast.RangeStmt) bool {
	escapes := false
	allowedCall := make(map[ast.Node]bool)
	declaredInside := func(id *ast.Ident) bool {
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if obj == nil {
			return false // unresolved: assume outside (conservative)
		}
		return obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End()
	}
	markOutsideWrite := func(e ast.Expr) {
		// The written location's root variable decides locality.
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
				continue
			case *ast.SelectorExpr:
				e = x.X
				continue
			}
			break
		}
		if id, ok := e.(*ast.Ident); ok {
			if id.Name == "_" || declaredInside(id) {
				return
			}
		}
		escapes = true
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			// keys = append(keys, k): the sanctioned collection idiom.
			if call, ok := selfAppend(info, x); ok {
				allowedCall[call] = true
				return true
			}
			for _, l := range x.Lhs {
				markOutsideWrite(l)
			}
		case *ast.IncDecStmt:
			markOutsideWrite(x.X)
		case *ast.CallExpr:
			if allowedCall[x] {
				return true
			}
			if b, ok := lint.CalleeObject(info, x).(*types.Builtin); ok {
				switch b.Name() {
				case "len", "cap", "min", "max", "delete":
					return true
				}
			}
			escapes = true
		case *ast.SendStmt, *ast.ReturnStmt, *ast.GoStmt, *ast.DeferStmt:
			escapes = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				escapes = true
			}
		}
		return true
	})
	return escapes
}

// selfAppend matches `x = append(x, ...)` — collecting keys or values
// into a slice for a later sort.
func selfAppend(info *types.Info, as *ast.AssignStmt) (*ast.CallExpr, bool) {
	if as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, false
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil, false
	}
	if b, ok := lint.CalleeObject(info, call).(*types.Builtin); !ok || b.Name() != "append" {
		return nil, false
	}
	arg0, ok := call.Args[0].(*ast.Ident)
	if !ok || info.Uses[arg0] == nil || info.Uses[arg0] != info.Uses[lhs] {
		return nil, false
	}
	return call, true
}
