// Package lint is the home of gristlint, the repo's custom static
// analysis suite. It provides a small, dependency-free analog of
// golang.org/x/tools/go/analysis — an Analyzer runs over one
// type-checked package at a time and reports Diagnostics — plus the
// offline package loader (load.go) and the //lint:ignore suppression
// machinery (ignore.go).
//
// The framework is stdlib-only (go/ast, go/types, go/build) and meant
// to stay so: cmd/gristlint is a standalone multichecker over this
// package, and the two walks more than one analyzer needs live here once
// — the directive-reach walk (reach.go) and the statement-list window
// walk (StmtLists, astutil.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check: a name findings are reported and
// suppressed under, a doc string shown by `gristlint -help`, and the Run
// function applied to every loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one analyzer's view of one package: the syntax trees, the
// type information, the Report sink, and the cross-package fact store.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Path      string // import path of the package under analysis
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
	facts  map[factKey]string // cross-package function summaries, shared by the Run
}

// factKey addresses one function's exported summary (see Reach). Every
// package of a Run comes from one Loader, so an imported function's
// types.Func is pointer-identical to the one its defining package
// exported under, and no serialization or renaming is needed.
type factKey struct {
	analyzer string
	fn       *types.Func
}

// Report emits a diagnostic.
func (p *Pass) Report(d Diagnostic) {
	if d.Analyzer == "" {
		d.Analyzer = p.Analyzer.Name
	}
	p.report(d)
}

// Reportf emits a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position, the analyzer that produced it,
// and a human-readable message.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Position resolves the diagnostic's file position.
func (d Diagnostic) Position(fset *token.FileSet) token.Position {
	return fset.Position(d.Pos)
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics, sorted by position. Findings suppressed by a well-formed
// //lint:ignore directive (see ignore.go) are dropped; malformed
// directives are themselves reported under the analyzer name "lint".
// All packages must come from one Loader (they share its FileSet).
//
// Packages are analyzed in import dependency order (imports before
// importers), so an analyzer that exports facts for a package's
// functions can rely on its module-local callees' facts being present.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	facts := make(map[factKey]string)
	var all []Diagnostic
	for _, pkg := range dependencyOrder(pkgs) {
		ig := collectIgnores(pkg.Fset, pkg.Files)
		for _, bad := range ig.malformed {
			all = append(all, bad)
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Path:      pkg.Path,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				facts:     facts,
				report: func(d Diagnostic) {
					if ig.suppresses(pkg.Fset, d) {
						return
					}
					all = append(all, d)
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sortDiagnostics(all, pkgs[0].Fset)
	return all, nil
}

// sortDiagnostics orders diagnostics by (file, line, message).
func sortDiagnostics(all []Diagnostic, fset *token.FileSet) {
	sort.SliceStable(all, func(i, j int) bool {
		pi, pj := all[i].Position(fset), all[j].Position(fset)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return all[i].Message < all[j].Message
	})
}

// dependencyOrder topologically sorts the packages so imports precede
// importers (ties broken by input order). Only dependencies that are
// themselves in the slice matter; edges to packages outside it (the
// stdlib, unloaded module packages) are ignored.
func dependencyOrder(pkgs []*Package) []*Package {
	byTypes := make(map[*types.Package]*Package, len(pkgs))
	for _, p := range pkgs {
		byTypes[p.Types] = p
	}
	out := make([]*Package, 0, len(pkgs))
	state := make(map[*Package]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p] != 0 {
			return // done, or a cycle (impossible in valid Go) — skip
		}
		state[p] = 1
		for _, imp := range p.Types.Imports() {
			if dep, ok := byTypes[imp]; ok {
				visit(dep)
			}
		}
		state[p] = 2
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}
