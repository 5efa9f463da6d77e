package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppression directive: a comment of the form
//
//	//lint:ignore analyzer[,analyzer...] reason
//
// on the offending line, or on a line of its own immediately above it,
// silences the named analyzers' findings on that line. The reason is
// mandatory — an ignore without one is itself a diagnostic, so every
// suppression in the tree documents why the invariant does not apply.
// The marker "*" suppresses every analyzer.
const ignorePrefix = "//lint:ignore"

// ignoreSet indexes the well-formed directives of one package by
// (file, line), counts them per analyzer name (a directive naming
// several counts once for each) and carries diagnostics for the
// malformed ones.
type ignoreSet struct {
	byLine    map[string]map[int][]string // file -> line -> analyzer names
	counts    map[string]int
	malformed []Diagnostic
}

// collectIgnores scans every comment of the package.
func collectIgnores(fset *token.FileSet, files []*ast.File) *ignoreSet {
	ig := &ignoreSet{byLine: make(map[string]map[int][]string), counts: make(map[string]int)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, ignorePrefix)
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) < 2 {
					ig.malformed = append(ig.malformed, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "lint",
						Message:  "malformed //lint:ignore: need an analyzer name and a reason (//lint:ignore name why-this-is-safe)",
					})
					continue
				}
				names := strings.Split(fields[0], ",")
				for _, name := range names {
					ig.counts[name]++
				}
				m := ig.byLine[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					ig.byLine[pos.Filename] = m
				}
				// The directive covers its own line; a directive on a line
				// of its own also covers the next line. Registering both is
				// harmless for end-of-line comments.
				m[pos.Line] = append(m[pos.Line], names...)
				m[pos.Line+1] = append(m[pos.Line+1], names...)
			}
		}
	}
	return ig
}

// suppresses reports whether a well-formed directive covers d.
func (ig *ignoreSet) suppresses(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	for _, name := range ig.byLine[pos.Filename][pos.Line] {
		if name == "*" || name == d.Analyzer {
			return true
		}
	}
	return false
}
