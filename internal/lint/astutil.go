package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The syntax and type-info walks more than one analyzer needs, spelled
// once.

// HasDirective reports whether fd's doc comment carries a line starting
// with directive (a "//grist:..." marker).
func HasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, directive) {
			return true
		}
	}
	return false
}

// CalleeObject resolves the called object, seeing through parens and
// generic instantiation; nil for a call through a computed value.
func CalleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	fun := call.Fun
	for {
		switch f := fun.(type) {
		case *ast.ParenExpr:
			fun = f.X
			continue
		case *ast.IndexExpr: // explicit generic instantiation f[T](...)
			fun = f.X
			continue
		case *ast.IndexListExpr:
			fun = f.X
			continue
		}
		break
	}
	switch f := fun.(type) {
	case *ast.Ident:
		return info.Uses[f]
	case *ast.SelectorExpr:
		return info.Uses[f.Sel]
	}
	return nil
}

// FuncLabel renders pkg.Func or pkg.Type.Method for messages.
func FuncLabel(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := types.Unalias(t).(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			return pkg + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// ShortFile trims the path to its last two elements for messages.
func ShortFile(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) <= 2 {
		return path
	}
	return strings.Join(parts[len(parts)-2:], "/")
}

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
