package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

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
