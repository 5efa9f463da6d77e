// Package precisioncheck enforces the mixed-precision discipline of
// §3.4: kernels parameterized by precision.Real must actually compute in
// the switchable working precision, and the FP64-pinned terms
// (geopotential, pressure-gradient/gravity diagnostics, the accumulated
// mass flux) must never be demoted. The ps/vor < 5% harness checks the
// outcome dynamically; this analyzer checks the construction statically.
//
// Rules:
//
//	R1 round-trip promotion: a conversion T(...) to a Real type
//	   parameter whose argument contains float64(x)/float32(x) of a
//	   value of a Real type parameter. The enclosed computation silently
//	   runs at a fixed precision, defeating the switchable kind.
//	R2 pinned demotion: a conversion to float32 or to a Real type
//	   parameter whose argument mentions an FP64-pinned field (the
//	   allowlist below). Deriving an insensitive value from a pinned
//	   term must go through a named float64 intermediate, so the
//	   demotion is visible at a declaration rather than buried in an
//	   expression.
//	R3 literal-typed intermediate: a short variable declaration from an
//	   untyped float constant (which defaults to float64) whose variable
//	   is later converted to a Real type parameter. Write uStar := T(10)
//	   instead of uStar := 10.0 ... T(uStar).
//	R4 fixed round-trip: float64(float32(x)) outside internal/precision.
//	   That idiom is storage rounding (§3.4.3) and must go through
//	   precision.Round32 so its semantics stay in one place.
//
// internal/precision (the rounding machinery itself) and internal/infer
// (the quantizing inference engine) are exempt.
package precisioncheck

import (
	"go/ast"
	"go/types"
	"strings"

	"gristgo/internal/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "precisioncheck",
	Doc:  "enforce the §3.4 mixed-precision discipline around precision.Real kernels and FP64-pinned fields",
	Run:  run,
}

// exemptSuffixes are the packages allowed to convert freely between
// fixed and switchable precisions.
var exemptSuffixes = []string{"internal/precision", "internal/infer"}

// pinnedNames lists the FP64-pinned fields of §3.4.2: geopotential, the
// pressure/Exner diagnostics and the per-cell pressure-gradient inputs
// (phm, pnh) feeding the pressure-gradient and gravity terms, the
// double-precision tendency accumulators, and the accumulated tracer
// mass flux.
var pinnedNames = map[string]bool{
	"Phi":           true,
	"pres":          true,
	"exner":         true,
	"phm":           true,
	"pnh":           true,
	"dMass":         true,
	"dTheta":        true,
	"dU":            true,
	"massFluxAcc":   true,
	"MassFluxAccum": true,
}

func run(pass *lint.Pass) error {
	for _, suf := range exemptSuffixes {
		if strings.HasSuffix(pass.Path, suf) {
			return nil
		}
	}
	info := pass.TypesInfo
	for _, f := range pass.Files {
		// R3 bookkeeping: objects declared from untyped float constants.
		literalTyped := literalFloatDecls(f, info)

		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			target, isConv := conversionTarget(info, call)
			if !isConv {
				return true
			}
			arg := call.Args[0]

			toReal := isRealTypeParam(target)
			toF32 := isBasicFloat(target, types.Float32)
			toF64 := isBasicFloat(target, types.Float64)

			if toReal {
				if inner := findFixedConversionOfReal(info, arg); inner != nil {
					pass.Reportf(call.Pos(),
						"working-precision value round-trips through %s inside a conversion back to its Real type parameter; the enclosed arithmetic runs at fixed precision regardless of the instantiation (§3.4)",
						types.ExprString(inner.Fun))
				}
			}
			if toReal || toF32 {
				if name := findPinnedMention(arg); name != "" {
					pass.Reportf(call.Pos(),
						"FP64-pinned field %q flows into a %s conversion; pinned terms (pressure gradient, gravity, accumulated mass flux) must stay float64 — derive insensitive values through a named float64 intermediate (§3.4.2)",
						name, convName(target))
				}
			}
			if toReal {
				if id, ok := arg.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil && literalTyped[obj] {
						pass.Reportf(call.Pos(),
							"%s was declared from an untyped float literal (defaulting to float64) and is now converted to the Real type parameter; declare it in working precision instead (e.g. %s := %s(10.0))",
							id.Name, id.Name, convName(target))
					}
				}
			}
			if toF64 {
				if inner, ok := unparen(arg).(*ast.CallExpr); ok && len(inner.Args) == 1 {
					if t, isC := conversionTarget(info, inner); isC && isBasicFloat(t, types.Float32) {
						pass.Reportf(call.Pos(),
							"float64(float32(...)) models storage rounding; use precision.Round32 so the §3.4.3 rounding semantics stay centralized")
					}
				}
			}
			return true
		})
	}
	return nil
}

// conversionTarget reports whether call is a type conversion and returns
// the target type.
func conversionTarget(info *types.Info, call *ast.CallExpr) (types.Type, bool) {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil, false
	}
	return tv.Type, true
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func isBasicFloat(t types.Type, kind types.BasicKind) bool {
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}

// isRealTypeParam reports whether t is a type parameter whose constraint
// is a precision.Real-shaped interface: a pure float32/float64 union
// with no methods. The check is structural, so locally declared
// equivalents of precision.Real are recognized too.
func isRealTypeParam(t types.Type) bool {
	tp, ok := types.Unalias(t).(*types.TypeParam)
	if !ok {
		return false
	}
	iface, ok := tp.Constraint().Underlying().(*types.Interface)
	if !ok || iface.NumMethods() != 0 || iface.NumEmbeddeds() == 0 {
		return false
	}
	return floatOnlyTerms(iface)
}

// floatOnlyTerms reports whether every term of the interface's type set
// is (an approximation of) float32 or float64.
func floatOnlyTerms(iface *types.Interface) bool {
	sawTerm := false
	var check func(t types.Type) bool
	check = func(t types.Type) bool {
		switch u := types.Unalias(t).(type) {
		case *types.Union:
			for i := 0; i < u.Len(); i++ {
				if !check(u.Term(i).Type()) {
					return false
				}
			}
			return true
		default:
			if sub, ok := t.Underlying().(*types.Interface); ok {
				for i := 0; i < sub.NumEmbeddeds(); i++ {
					if !check(sub.EmbeddedType(i)) {
						return false
					}
				}
				return true
			}
			b, ok := t.Underlying().(*types.Basic)
			if !ok || (b.Kind() != types.Float32 && b.Kind() != types.Float64) {
				return false
			}
			sawTerm = true
			return true
		}
	}
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		if !check(iface.EmbeddedType(i)) {
			return false
		}
	}
	return sawTerm
}

// findFixedConversionOfReal returns a float64(...)/float32(...) call in
// the subtree whose argument's type is a Real type parameter, or nil.
func findFixedConversionOfReal(info *types.Info, root ast.Expr) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(root, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		t, isConv := conversionTarget(info, call)
		if !isConv || (!isBasicFloat(t, types.Float64) && !isBasicFloat(t, types.Float32)) {
			return true
		}
		if at, ok := info.Types[call.Args[0]]; ok && isRealTypeParam(at.Type) {
			found = call
			return false
		}
		return true
	})
	return found
}

// findPinnedMention returns the name of an FP64-pinned field referenced
// (as a selector) anywhere in the subtree, or "".
func findPinnedMention(root ast.Expr) string {
	name := ""
	ast.Inspect(root, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok && pinnedNames[sel.Sel.Name] {
			name = sel.Sel.Name
			return false
		}
		return true
	})
	return name
}

// convName renders the conversion target for messages.
func convName(t types.Type) string {
	if tp, ok := types.Unalias(t).(*types.TypeParam); ok {
		return tp.Obj().Name()
	}
	return t.String()
}

// literalFloatDecls collects objects introduced by `x := <untyped float
// constant>` (or var x = ...), whose static type defaulted to float64.
func literalFloatDecls(f *ast.File, info *types.Info) map[types.Object]bool {
	out := make(map[types.Object]bool)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			return
		}
		tv, ok := info.Types[rhs]
		if !ok || tv.Value == nil {
			return
		}
		// The declaration is suspect only if the constant defaulted to
		// float64: that is the silent promotion. (go/types records the
		// post-default type for untyped constants in value positions.)
		if isBasicFloat(obj.Type(), types.Float64) {
			out[obj] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					record(st.Lhs[i], st.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == len(st.Values) && st.Type == nil {
				for i := range st.Names {
					record(st.Names[i], st.Values[i])
				}
			}
		}
		return true
	})
	return out
}
