package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// checkSrc type-checks one import-free source file into a Package.
func checkSrc(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	tpkg, err := (&types.Config{}).Check("example.com/p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Path: "example.com/p", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

// makeAnalyzer is a toy on the reach walk: a make() call is a finding,
// reported in every function reached from a root carrying directive, and
// a call into a package whose fact says "makes" is reported like
// hotpathalloc does.
func makeAnalyzer(directive string) *Analyzer {
	return &Analyzer{Name: "maketest", Run: func(pass *Pass) error {
		r := NewReach(pass, directive, nil)
		r.ExportFacts("makes", func(fn *ReachFunc) []Diagnostic {
			var out []Diagnostic
			ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if b, ok := CalleeObject(pass.TypesInfo, call).(*types.Builtin); ok && b.Name() == "make" {
						out = append(out, Diagnostic{Pos: call.Pos(), Message: "make in " + fn.Decl.Name.Name})
					}
				}
				return true
			})
			return out
		})
		for _, fn := range r.Reached() {
			for _, f := range fn.Findings {
				pass.Report(f)
			}
			for _, c := range fn.Cross {
				if reason, ok := r.Fact(c.Fn); ok {
					pass.Reportf(c.Pos, "%s calls %s: %s", fn.Decl.Name.Name, FuncLabel(c.Fn), reason)
				}
			}
		}
		return nil
	}}
}

func messages(t *testing.T, pkgs []*Package, a *Analyzer) []string {
	t.Helper()
	diags, err := Run(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range diags {
		out = append(out, d.Message)
	}
	return out
}

func TestReachCycleTerminates(t *testing.T) {
	pkg := checkSrc(t, `package p

//test:root
func a(n int) { b(n) }
func b(n int) { c(n); a(n) }
func c(n int) { _ = make([]int, n); b(n) }
func cold(n int) { _ = make([]int, n) }
`)
	got := messages(t, []*Package{pkg}, makeAnalyzer("//test:root"))
	if len(got) != 1 || got[0] != "make in c" {
		t.Errorf("diagnostics = %q, want the one make in c (cold unreached, the a→b→c→b cycle walked once)", got)
	}
}

func TestReachResolvesGenericCalleesThroughOrigin(t *testing.T) {
	pkg := checkSrc(t, `package p

type engine[T any] struct{ buf []T }

//test:root
func (e *engine[T]) step(n int) { e.helper(n); grow[T](n); infer(e.buf) }
func (e *engine[T]) helper(n int) { e.buf = make([]T, n) }
func grow[T any](n int) []T { return make([]T, n) }
func infer[T any](xs []T) []T { return make([]T, len(xs)) }
`)
	got := messages(t, []*Package{pkg}, makeAnalyzer("//test:root"))
	want := []string{"make in helper", "make in grow", "make in infer"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("diagnostics = %q, want %q: a method of the instantiated receiver, an explicit and an inferred instantiation all resolve to their declarations", got, want)
	}
}

// The cross-package half rides the hotpathalloc fixtures: dep.GrowVia
// allocates only through dep.Grow, so the fact the main fixture sees is
// the dep package's fixpoint result.
func TestReachFactsCrossPackages(t *testing.T) {
	base := filepath.Join("testdata", "src")
	loader, err := NewLoader(base)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := loader.LoadDir(filepath.Join(base, "hotpathalloc_dep"), "example.com/fix/hotdep")
	if err != nil {
		t.Fatal(err)
	}
	main, err := loader.LoadDir(filepath.Join(base, "hotpathalloc"), "example.com/fix/hotpathalloc")
	if err != nil {
		t.Fatal(err)
	}
	// main first: Run must reorder imports before importers.
	got := strings.Join(messages(t, []*Package{main, dep}, makeAnalyzer("//grist:hotpath")), "\n")
	for _, want := range []string{
		"crossStep calls dep.Grow: make in Grow (hotpathalloc_dep/dep.go:8)",
		"crossStepTransitive calls dep.GrowVia: calls Grow, which makes: make in Grow (hotpathalloc_dep/dep.go:8)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
	if strings.Contains(got, "dep.Scale") {
		t.Errorf("allocation-free dep.Scale must carry no fact:\n%s", got)
	}
}

// Two allocating callees, one of them only transitively: which one the
// chain names depends on the order the fixpoint visits functions in, so
// it must be the same on every run (the parent iterated a map).
func TestReachReasonChainIsStable(t *testing.T) {
	const src = `package p

func top(n int) { mid(n) }
func mid(n int) { via(n); direct(n) }
func via(n int) { leaf(n) }
func direct(n int) { _ = make([]int, n) }
func leaf(n int) { _ = make([]int, n) }
`
	const want = "calls mid, which makes: calls direct, which makes: make in direct (p.go:6)"
	for i := 0; i < 20; i++ {
		var got string
		a := makeAnalyzer("//test:root")
		run := a.Run
		a.Run = func(pass *Pass) error {
			err := run(pass)
			got = pass.facts[factKey{a.Name, pass.Pkg.Scope().Lookup("top").(*types.Func)}]
			return err
		}
		messages(t, []*Package{checkSrc(t, src)}, a)
		if got != want {
			t.Fatalf("run %d: top's fact = %q, want %q", i, got, want)
		}
	}
}

const windowSrc = `package p

func f(ch chan int, xs []int) {
	a()
	if len(xs) > 0 {
		b()
		return
	}
outer:
	for range xs {
		switch {
		case len(xs) > 1:
			c()
			break outer
		default:
			d()
		}
	}
	select {
	case <-ch:
		e()
	}
	go func() {
		g()
	}()
}
func a() {}
func b() {}
func c() {}
func d() {}
func e() {}
func g() {}
`

// firstCalls renders a statement list as the callee names in the
// straight-line part of each statement.
func firstCalls(stmts []ast.Stmt) string {
	var names []string
	for _, st := range stmts {
		StraightLine(st, func(n ast.Node) {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok {
					names = append(names, id.Name)
				}
			}
		})
	}
	return strings.Join(names, ",")
}

func TestStmtListsVisitsEachListOnce(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", windowSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	StmtLists(f.Decls[0], func(stmts []ast.Stmt) { seen[firstCalls(stmts)]++ })
	// f's body (len is a call too), the if body, the labeled for body
	// (no straight-line call), both case bodies, the comm body and the
	// function literal's body; the two clause lists are not sequences.
	want := map[string]int{"a,len": 1, "b": 1, "": 1, "c": 1, "d": 1, "e": 1, "g": 1}
	for k, n := range want {
		if seen[k] != n {
			t.Errorf("list %q visited %d times, want %d (all: %v)", k, seen[k], n, seen)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("lists visited = %v, want exactly %v", seen, want)
	}
}

// A window opened in a guard branch covers only the rest of that branch:
// the statements after the if belong to the enclosing list, whose window
// scan never saw the branch's call.
func TestWindowGuardBranchDoesNotTaintFallThrough(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", windowSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	after := make(map[string]string) // callee → what follows it in its own list
	StmtLists(f.Decls[0], func(stmts []ast.Stmt) {
		for i, st := range stmts {
			if name := firstCalls([]ast.Stmt{st}); name != "" {
				after[name] = firstCalls(stmts[i+1:])
			}
		}
	})
	if after["b"] != "" {
		t.Errorf("window after b() = %q, want empty: only the return follows it in the guard branch", after["b"])
	}
	if after["a"] != "len" {
		t.Errorf("window after a() = %q, want \"len\": nested lists are not part of the outer window's straight line", after["a"])
	}
}
