// Package lint is the home of gristlint, the repo's custom static
// analysis suite. It provides a small, dependency-free analog of
// golang.org/x/tools/go/analysis — an Analyzer runs over one
// type-checked package at a time and reports Diagnostics — plus the
// offline package loader (load.go).
//
// The framework is stdlib-only (go/ast, go/types, go/build) and meant
// to stay so: cmd/gristlint is a standalone multichecker over this
// package, and the walk the analyzers share lives here once — the
// statement-list window walk (StmtLists, astutil.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check: a name findings are reported
// under, a doc string shown by `gristlint -help`, and the Run
// function applied to every loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one analyzer's view of one package: the syntax trees, the
// type information and the Report sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Path      string // import path of the package under analysis
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
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

// Run applies every analyzer to every package and returns the
// diagnostics, sorted by position. All packages must come from one
// Loader (they share its FileSet).
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Path:      pkg.Path,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				report:    func(d Diagnostic) { all = append(all, d) },
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
