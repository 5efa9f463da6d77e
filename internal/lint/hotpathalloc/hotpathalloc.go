// Package hotpathalloc enforces the allocation-free steady state of the
// model's hot paths by construction. A function annotated
//
//	//grist:hotpath
//
// in its doc comment — the dycore step kernels, the inference engine's
// execute path, the halo pack/unpack — must not contain heap-allocating
// constructs, and neither may any same-package function it statically
// calls: make/new, append, slice or map composite literals, &T{...},
// fmt.* calls, goroutine launches, and closure creation.
//
// Two sanctioned idioms are carved out:
//
//   - A closure handed directly to the engine's loop driver
//     (parallelFor) is the repo's OpenMP-analog iteration idiom; the
//     closure header is one O(1) allocation per kernel invocation while
//     the closure BODY holds the per-entity loop, so bodies are still
//     checked, creations are not.
//   - Anything inside the argument list of panic(...) is a cold path.
//
// Call-graph propagation is name-resolved. Same-package calls are
// followed directly; package boundaries are crossed through facts:
// analyzing a package exports a per-function "allocates" summary for
// every declaration, and — lint.Run analyzes packages in import
// dependency order — a hot path calling into another module package is
// checked against the callee's exported summary. Calls through
// function values (e.g. OwnedSets.Start) and into packages without
// facts (stdlib) are still not followed — those boundaries remain
// covered by the testing.AllocsPerRun guards.
package hotpathalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"gristgo/internal/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid heap-allocating constructs in //grist:hotpath functions and their package-local callees",
	Run:  run,
}

// directive marks a hot-path function in its doc comment.
const directive = "//grist:hotpath"

// loopDrivers names the sanctioned iteration helper: a closure passed
// directly to it is not reported (its body still is), and the check
// does not propagate into the driver itself.
var loopDrivers = map[string]bool{"parallelFor": true}

func run(pass *lint.Pass) error {
	r := lint.NewReach(pass, directive, func(fn *types.Func) bool { return loopDrivers[fn.Name()] })

	// An "allocates" fact for every declaration, hot or not: later
	// packages check their hot paths' calls into this one against them.
	r.ExportFacts("allocates", func(fn *lint.ReachFunc) []lint.Diagnostic {
		w := &walker{info: pass.TypesInfo, fn: fn.Decl.Name.Name}
		w.walk(fn.Decl.Body, false)
		return w.findings
	})

	for _, fn := range r.Reached() {
		for _, f := range fn.Findings {
			pass.Report(f)
		}
		for _, c := range fn.Cross {
			if reason, ok := r.Fact(c.Fn); ok && !inPanicArgs(pass.TypesInfo, fn.Decl.Body, c.Pos) {
				pass.Reportf(c.Pos, "call to %s in hot path %s allocates: %s", lint.FuncLabel(c.Fn), fn.Decl.Name.Name, reason)
			}
		}
	}
	return nil
}

// inPanicArgs reports whether pos lies inside the argument list of a
// panic(...) in body — the cold path a hot function may allocate on.
func inPanicArgs(info *types.Info, body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Lparen < pos && pos < call.Rparen &&
			isBuiltin(lint.CalleeObject(info, call), "panic") {
			found = true
		}
		return !found
	})
	return found
}

// walker collects the allocating constructs of one function body.
type walker struct {
	info     *types.Info
	fn       string
	findings []lint.Diagnostic
}

func (w *walker) report(pos token.Pos, format string, args ...any) {
	w.findings = append(w.findings, lint.Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// walk visits n; inPanic marks subtrees inside panic(...) arguments.
func (w *walker) walk(n ast.Node, inPanic bool) {
	if n == nil {
		return
	}
	info := w.info
	ast.Inspect(n, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.GoStmt:
			if !inPanic {
				w.report(x.Pos(), "goroutine launch in hot path %s allocates; hoist concurrency into the loop drivers", w.fn)
			}
		case *ast.CallExpr:
			return w.visitCall(x, inPanic)
		case *ast.FuncLit:
			if !inPanic {
				w.report(x.Pos(), "closure created in hot path %s allocates per call; pass it to a loop driver or hoist it out of the steady state", w.fn)
			}
			// Body is traversed by the enclosing Inspect anyway.
		case *ast.CompositeLit:
			if inPanic {
				return true
			}
			if tv, ok := info.Types[x]; ok {
				switch types.Unalias(tv.Type).Underlying().(type) {
				case *types.Slice:
					w.report(x.Pos(), "slice literal in hot path %s heap-allocates; use a preallocated scratch buffer", w.fn)
				case *types.Map:
					w.report(x.Pos(), "map literal in hot path %s heap-allocates; use a preallocated structure", w.fn)
				}
			}
		case *ast.UnaryExpr:
			if !inPanic && x.Op.String() == "&" {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					w.report(x.Pos(), "&composite literal in hot path %s escapes to the heap; reuse a preallocated value", w.fn)
				}
			}
		}
		return true
	})
}

// visitCall classifies one call expression. Returns false when the
// children were handled manually.
func (w *walker) visitCall(call *ast.CallExpr, inPanic bool) bool {
	obj := lint.CalleeObject(w.info, call)

	switch {
	case obj == nil: // dynamic call through a value
		return true
	case isBuiltin(obj, "panic"):
		// Cold path: walk arguments with the exemption set.
		for _, a := range call.Args {
			w.walk(a, true)
		}
		return false
	case isBuiltin(obj, "make"):
		if !inPanic {
			w.report(call.Pos(), "make in hot path %s allocates per call; allocate at construction time", w.fn)
		}
	case isBuiltin(obj, "new"):
		if !inPanic {
			w.report(call.Pos(), "new in hot path %s allocates per call; allocate at construction time", w.fn)
		}
	case isBuiltin(obj, "append"):
		if !inPanic {
			w.report(call.Pos(), "append in hot path %s may grow its backing array; size buffers at construction time", w.fn)
		}
	case isFmtCall(obj):
		if !inPanic {
			w.report(call.Pos(), "fmt call in hot path %s allocates (boxing and buffers); restrict formatting to error paths", w.fn)
		}
	case loopDrivers[obj.Name()]:
		// Sanctioned iteration scaffolding: do not flag direct closure
		// arguments and do not propagate into the driver, but do check
		// the closure bodies (they hold the per-entity loops).
		for _, a := range call.Args {
			if fl, ok := a.(*ast.FuncLit); ok {
				w.walk(fl.Body, inPanic)
			} else {
				w.walk(a, inPanic)
			}
		}
		w.walk(call.Fun, inPanic)
		return false
	}
	return true
}

func isBuiltin(obj types.Object, name string) bool {
	b, ok := obj.(*types.Builtin)
	return ok && b.Name() == name
}

func isFmtCall(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt"
}
