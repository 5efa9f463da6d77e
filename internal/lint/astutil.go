package lint

import "go/ast"

// The statement-list window walk locksafety scans with, kept beside the
// framework so its unit tests (walks_test.go) need no fixture.

// StmtLists hands every statement list under root — block bodies, case
// and comm clause bodies, function-literal bodies included, whether or
// not the owning statement is labeled — to visit exactly once. With
// StraightLine over each statement it is the window walk: a construct in
// the straight-line part of stmts[i] opens a window over stmts[i+1:],
// and a nested list gets its own scan, so a guard branch that returns
// does not taint the fall-through path. The clause list of a switch or
// select is a set of alternatives, not a sequence, and is not handed
// out; each clause's body is.
func StmtLists(root ast.Node, visit func(stmts []ast.Stmt)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch b := n.(type) {
		case *ast.BlockStmt:
			if len(b.List) > 0 {
				switch b.List[0].(type) {
				case *ast.CaseClause, *ast.CommClause:
					return true
				}
			}
			visit(b.List)
		case *ast.CaseClause:
			visit(b.Body)
		case *ast.CommClause:
			visit(b.Body)
		}
		return true
	})
}

// StraightLine visits st without descending into nested blocks or
// function literals (those get their own scans).
func StraightLine(st ast.Stmt, f func(ast.Node)) {
	ast.Inspect(st, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.BlockStmt, *ast.FuncLit:
			return false
		}
		if n != nil {
			f(n)
		}
		return true
	})
}
