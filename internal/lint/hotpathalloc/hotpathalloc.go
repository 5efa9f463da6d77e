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

// Fact is the per-function allocation summary exported for
// cross-package propagation: present means the function (transitively)
// contains an allocating construct, and Reason says which.
type Fact struct {
	Reason string
}

// loopDrivers names the sanctioned iteration helper: a closure passed
// directly to it is not reported (its body still is).
var loopDrivers = map[string]bool{"parallelFor": true}

func run(pass *lint.Pass) error {
	info := pass.TypesInfo

	// Index this package's function declarations by their object.
	decls := make(map[types.Object]*ast.FuncDecl)
	var roots []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := info.Defs[fd.Name]; obj != nil {
				decls[obj] = fd
			}
			if lint.HasDirective(fd, directive) {
				roots = append(roots, fd)
			}
		}
	}

	// Export an "allocates" fact for every declaration, hot or not:
	// later packages check their hot paths' calls into this one against
	// these summaries.
	exportAllocFacts(pass, decls)

	if len(roots) == 0 {
		return nil
	}

	// Worklist: every function reachable from an annotated root through
	// statically resolved same-package calls is hot.
	checked := make(map[*ast.FuncDecl]bool)
	work := append([]*ast.FuncDecl(nil), roots...)
	for len(work) > 0 {
		fd := work[0]
		work = work[1:]
		if checked[fd] {
			continue
		}
		checked[fd] = true
		callees := checkBody(pass, fd)
		for _, obj := range callees {
			if cd, ok := decls[obj]; ok && !checked[cd] {
				work = append(work, cd)
			}
		}
	}
	return nil
}

// exportAllocFacts computes the transitive allocates-summary of every
// function in the package — own allocating constructs, same-package
// callees (fixpoint), imported facts of cross-package callees — and
// exports a Fact for each function that allocates.
func exportAllocFacts(pass *lint.Pass, decls map[types.Object]*ast.FuncDecl) {
	type summary struct {
		first finding
		has   bool
		same  []types.Object
		cross []crossCall
	}
	sums := make(map[types.Object]*summary, len(decls))
	for obj, fd := range decls {
		s := &summary{}
		w := &walker{pass: pass, fn: fd.Name.Name, sink: func(pos token.Pos, msg string) {
			if !s.has {
				s.first, s.has = finding{pos: pos, msg: msg}, true
			}
		}}
		w.walk(fd.Body, false)
		s.same, s.cross = w.callees, w.cross
		sums[obj] = s
	}
	reason := make(map[types.Object]string)
	for obj, s := range sums {
		if s.has {
			pos := pass.Fset.Position(s.first.pos)
			reason[obj] = fmt.Sprintf("%s (%s:%d)", s.first.msg, lint.ShortFile(pos.Filename), pos.Line)
			continue
		}
		for _, c := range s.cross {
			if f, ok := importAllocFact(pass, c.fn); ok {
				reason[obj] = fmt.Sprintf("calls %s, which allocates: %s", lint.FuncLabel(c.fn), f.Reason)
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
			for _, callee := range s.same {
				co := callee
				if fn, ok := co.(*types.Func); ok {
					co = fn.Origin()
				}
				if r, ok := reason[co]; ok {
					reason[obj] = fmt.Sprintf("calls %s, which allocates: %s", callee.Name(), r)
					changed = true
					break
				}
			}
		}
	}
	for obj, r := range reason {
		pass.ExportObjectFact(obj, Fact{Reason: r})
	}
}

// importAllocFact resolves a cross-package callee's exported Fact.
func importAllocFact(pass *lint.Pass, fn *types.Func) (Fact, bool) {
	v, ok := pass.ImportObjectFact(fn.Origin())
	if !ok {
		return Fact{}, false
	}
	f, ok := v.(Fact)
	return f, ok
}

// finding is one allocating construct, for summary mode.
type finding struct {
	pos token.Pos
	msg string
}

// crossCall is one statically resolved call into another package.
type crossCall struct {
	fn  *types.Func
	pos token.Pos
}

// walker carries the traversal state through one function body. In hot
// mode (checkBody) findings become diagnostics and cross-package calls
// are checked against imported facts; in summary mode (sink set by
// exportAllocFacts) findings feed the function's exported summary.
type walker struct {
	pass    *lint.Pass
	fn      string
	hot     bool
	sink    func(token.Pos, string)
	callees []types.Object
	cross   []crossCall
}

func (w *walker) report(pos token.Pos, format string, args ...any) {
	w.sink(pos, fmt.Sprintf(format, args...))
}

// checkBody reports allocating constructs in fd's body and returns the
// statically resolved callees to propagate into.
func checkBody(pass *lint.Pass, fd *ast.FuncDecl) []types.Object {
	w := &walker{pass: pass, fn: fd.Name.Name, hot: true, sink: func(pos token.Pos, msg string) {
		pass.Reportf(pos, "%s", msg)
	}}
	w.walk(fd.Body, false)
	return w.callees
}

// walk visits n; inPanic marks subtrees inside panic(...) arguments.
func (w *walker) walk(n ast.Node, inPanic bool) {
	if n == nil {
		return
	}
	info := w.pass.TypesInfo
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
	info := w.pass.TypesInfo
	obj := lint.CalleeObject(info, call)

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
	default:
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			break
		}
		if fn.Pkg() == w.pass.Pkg {
			w.callees = append(w.callees, obj)
			break
		}
		w.cross = append(w.cross, crossCall{fn: fn, pos: call.Pos()})
		if w.hot && !inPanic {
			if f, ok := importAllocFact(w.pass, fn); ok {
				w.report(call.Pos(), "call to %s in hot path %s allocates: %s", lint.FuncLabel(fn), w.fn, f.Reason)
			}
		}
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
