package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The directive-reach walk, spelled once: a package's function
// declarations indexed by object, the roots that carry a directive,
// every statically resolved call site, the same-package closure of the
// roots and — for analyzers that export facts — the transitive summary
// fixpoint. An analyzer on it supplies only what counts as a finding in
// a body, which callees it exempts, and its message verb.

// Call is one statically resolved call site. Fn is the declared
// (Origin) function, so a generic instantiation, or a method reached
// through an instantiated receiver, resolves to its declaration.
type Call struct {
	Fn  *types.Func
	Pos token.Pos
}

// ReachFunc is one function declaration with its call sites.
type ReachFunc struct {
	Decl     *ast.FuncDecl
	Findings []Diagnostic // what ExportFacts' scan returned (Pos and Message)
	Same     []Call       // callees declared in this package
	Cross    []Call       // callees declared elsewhere

	obj  *types.Func
	root bool
}

// Reach is the call index of one package under one analyzer pass.
type Reach struct {
	pass  *Pass
	funcs []*ReachFunc // source order
	byObj map[*types.Func]*ReachFunc
}

// NewReach indexes the package: declarations in source order, roots
// marked by directive, call sites resolved through CalleeObject. A call
// whose callee exempt (nil: none) accepts is not recorded — neither
// followed nor matched against facts. Calls through function values and
// interface methods resolve to no declaration and are not followed.
func NewReach(pass *Pass, directive string, exempt func(*types.Func) bool) *Reach {
	r := &Reach{pass: pass, byObj: make(map[*types.Func]*ReachFunc)}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fn := &ReachFunc{Decl: fd, obj: obj, root: HasDirective(fd, directive)}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee, ok := CalleeObject(pass.TypesInfo, call).(*types.Func)
				if !ok || callee.Pkg() == nil || (exempt != nil && exempt(callee)) {
					return true
				}
				c := Call{Fn: callee.Origin(), Pos: call.Pos()}
				if callee.Pkg() == pass.Pkg {
					fn.Same = append(fn.Same, c)
				} else {
					fn.Cross = append(fn.Cross, c)
				}
				return true
			})
			r.funcs = append(r.funcs, fn)
			r.byObj[obj] = fn
		}
	}
	return r
}

// Reached returns the directive-carrying roots and every function they
// reach through same-package calls, each once.
func (r *Reach) Reached() []*ReachFunc {
	var out []*ReachFunc
	seen := make(map[*ReachFunc]bool)
	var visit func(fn *ReachFunc)
	visit = func(fn *ReachFunc) {
		if fn == nil || seen[fn] {
			return
		}
		seen[fn] = true
		out = append(out, fn)
		for _, c := range fn.Same {
			visit(r.byObj[c.Fn])
		}
	}
	for _, fn := range r.funcs {
		if fn.root {
			visit(fn)
		}
	}
	return out
}

// Fact returns the summary ExportFacts recorded for fn, under the
// running analyzer, while an earlier package (Run visits imports before
// importers) or this one was analyzed. Functions of packages outside the
// Run — the stdlib — have none and count as clean.
func (r *Reach) Fact(fn *types.Func) (string, bool) {
	reason, ok := r.pass.facts[factKey{r.pass.Analyzer.Name, fn}]
	return reason, ok
}

// ExportFacts scans every function body, then computes each function's
// transitive summary — its own first finding, else the first
// cross-package callee with a fact, else (to a fixpoint) the first
// same-package callee with a summary — and records it as the function's
// fact. Every loop runs in source order, so the reason chain a caller
// sees is the same on every run. verb completes "calls f, which <verb>:
// reason".
func (r *Reach) ExportFacts(verb string, scan func(*ReachFunc) []Diagnostic) {
	export := func(fn *ReachFunc, format string, args ...any) {
		r.pass.facts[factKey{r.pass.Analyzer.Name, fn.obj}] = fmt.Sprintf(format, args...)
	}
	for _, fn := range r.funcs {
		fn.Findings = scan(fn)
		if len(fn.Findings) > 0 {
			pos := r.pass.Fset.Position(fn.Findings[0].Pos)
			export(fn, "%s (%s:%d)", fn.Findings[0].Message, ShortFile(pos.Filename), pos.Line)
			continue
		}
		for _, c := range fn.Cross {
			if reason, ok := r.Fact(c.Fn); ok {
				export(fn, "calls %s, which %s: %s", FuncLabel(c.Fn), verb, reason)
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range r.funcs {
			if _, done := r.Fact(fn.obj); done {
				continue
			}
			for _, c := range fn.Same {
				if reason, ok := r.Fact(c.Fn); ok {
					export(fn, "calls %s, which %s: %s", c.Fn.Name(), verb, reason)
					changed = true
					break
				}
			}
		}
	}
}
