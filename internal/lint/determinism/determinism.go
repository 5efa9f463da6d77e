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

// Fact is the per-function determinism summary exported for
// cross-package propagation: present means the function (transitively)
// contains a nondeterministic construct, and Reason says which.
type Fact struct {
	Reason string
}

// finding is one position-precise nondeterministic construct.
type finding struct {
	pos token.Pos
	msg string
}

// callSite is one statically resolved call out of a function.
type callSite struct {
	obj *types.Func
	pos token.Pos
}

// fnSummary is the per-function analysis result.
type fnSummary struct {
	decl     *ast.FuncDecl
	findings []finding
	samePkg  []callSite // callees declared in this package
	crossPkg []callSite // callees declared elsewhere
}

func run(pass *lint.Pass) error {
	info := pass.TypesInfo

	sums := make(map[types.Object]*fnSummary)
	var roots []types.Object
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			sums[obj] = analyzeFunc(pass, fd)
			if lint.HasDirective(fd, directive) {
				roots = append(roots, obj)
			}
		}
	}

	// Transitive nondeterminism fixpoint over the package: a function is
	// nondeterministic if it contains a construct itself, calls a
	// same-package function that is, or calls a cross-package function
	// whose exported fact says so.
	reason := make(map[types.Object]string)
	for obj, s := range sums {
		if len(s.findings) > 0 {
			pos := pass.Fset.Position(s.findings[0].pos)
			reason[obj] = fmt.Sprintf("%s (%s:%d)", s.findings[0].msg, lint.ShortFile(pos.Filename), pos.Line)
		}
	}
	for obj, s := range sums {
		if _, done := reason[obj]; done {
			continue
		}
		for _, c := range s.crossPkg {
			if f, ok := importFact(pass, c.obj); ok {
				reason[obj] = fmt.Sprintf("calls %s, which is nondeterministic: %s", lint.FuncLabel(c.obj), f.Reason)
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for obj, s := range sums {
			if _, done := reason[obj]; done {
				continue
			}
			for _, c := range s.samePkg {
				if r, ok := reason[c.obj.Origin()]; ok {
					reason[obj] = fmt.Sprintf("calls %s, which is nondeterministic: %s", c.obj.Name(), r)
					changed = true
					break
				}
			}
		}
	}
	for obj := range sums {
		if r, ok := reason[obj]; ok {
			pass.ExportObjectFact(obj, Fact{Reason: r})
		}
	}

	// Report position-precise findings in every function reachable from
	// a //grist:bitwise root through same-package calls, and flag calls
	// that cross into a package whose summary is nondeterministic.
	checked := make(map[types.Object]bool)
	work := append([]types.Object(nil), roots...)
	for len(work) > 0 {
		obj := work[0]
		work = work[1:]
		if checked[obj] {
			continue
		}
		checked[obj] = true
		s, ok := sums[obj]
		if !ok {
			continue
		}
		for _, f := range s.findings {
			pass.Reportf(f.pos, "%s in bitwise-critical %s", f.msg, s.decl.Name.Name)
		}
		for _, c := range s.crossPkg {
			if f, ok := importFact(pass, c.obj); ok {
				pass.Reportf(c.pos, "call to %s in bitwise-critical %s is nondeterministic: %s",
					lint.FuncLabel(c.obj), s.decl.Name.Name, f.Reason)
			}
		}
		for _, c := range s.samePkg {
			if !checked[c.obj.Origin()] {
				work = append(work, c.obj.Origin())
			}
		}
	}
	return nil
}

// importFact resolves the callee's exported Fact, honoring the
// whitelist.
func importFact(pass *lint.Pass, fn *types.Func) (Fact, bool) {
	if fn.Pkg() != nil {
		path := fn.Pkg().Path()
		for _, suf := range exemptCalleeSuffixes {
			if strings.HasSuffix(path, suf) {
				return Fact{}, false
			}
		}
	}
	v, ok := pass.ImportObjectFact(fn.Origin())
	if !ok {
		return Fact{}, false
	}
	f, ok := v.(Fact)
	return f, ok
}

// analyzeFunc walks one function body collecting nondeterministic
// constructs and resolved call sites.
func analyzeFunc(pass *lint.Pass, fd *ast.FuncDecl) *fnSummary {
	info := pass.TypesInfo
	s := &fnSummary{decl: fd}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			if isMapType(info, x.X) && orderEscapes(info, x) {
				s.findings = append(s.findings, finding{
					pos: x.Pos(),
					msg: fmt.Sprintf("map iteration order over %s escapes", types.ExprString(x.X)) +
						"; collect and sort the keys first so every rank walks the same sequence",
				})
			}
		case *ast.CallExpr:
			s.visitCall(info, x, pass)
		}
		return true
	})
	return s
}

func (s *fnSummary) visitCall(info *types.Info, call *ast.CallExpr, pass *lint.Pass) {
	obj := lint.CalleeObject(info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return
	}
	switch pkg.Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			s.findings = append(s.findings, finding{
				pos: call.Pos(),
				msg: fmt.Sprintf("wall-clock read time.%s", fn.Name()) +
					"; bitwise paths must derive every decision from (seed, coordinates, epoch)",
			})
		}
		return
	case "math/rand", "math/rand/v2":
		// Only the global-generator draws (rand.Intn, rand.Float64, ...)
		// are nondeterministic; the New* constructors build explicitly
		// seeded generators, which are fine.
		if fn.Type().(*types.Signature).Recv() == nil && !strings.HasPrefix(fn.Name(), "New") {
			s.findings = append(s.findings, finding{
				pos: call.Pos(),
				msg: fmt.Sprintf("global math/rand draw rand.%s", fn.Name()) +
					"; use internal/detrand, the sanctioned seeded source",
			})
		}
		return
	}
	if pkg == pass.Pkg {
		s.samePkg = append(s.samePkg, callSite{obj: fn, pos: call.Pos()})
	} else {
		s.crossPkg = append(s.crossPkg, callSite{obj: fn, pos: call.Pos()})
	}
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
