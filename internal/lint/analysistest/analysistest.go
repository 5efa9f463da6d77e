// Package analysistest runs a lint analyzer over a testdata fixture and
// compares its diagnostics against the fixture's expectation comments,
// in the spirit of golang.org/x/tools/go/analysis/analysistest.
//
// Expectations are written on the line the diagnostic is reported at:
//
//	r.ch <- v // want `channel send while r\.mu is held`
//
// Each backquoted string after "want" is a regular expression that must
// match the message of exactly one diagnostic on that line. The test
// fails on any unexpected diagnostic and on any unmatched expectation —
// so a golden fixture also fails loudly if its analyzer is disabled.
package analysistest

import (
	"fmt"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"gristgo/internal/lint"
)

// backquoted extracts the expectation patterns from a want comment.
var backquoted = regexp.MustCompile("`([^`]+)`")

// Run loads dir as a single package under the synthetic import path
// asPath (fixtures live in testdata, invisible to the go tool, so the
// path is free to impersonate exempt or mandatory package paths) and
// requires a's diagnostics to match the fixture's want comments exactly.
func Run(t *testing.T, a *lint.Analyzer, dir, asPath string) {
	t.Helper()
	diags, pkg := load(t, a, dir, asPath)
	wants := collectWants(t, pkg)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		key := posKey(pos)
		matched := false
		for i, w := range wants[key] {
			if w != nil && w.MatchString(d.Message) {
				wants[key][i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic [%s]: %s", pos, d.Analyzer, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if w != nil {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w)
			}
		}
	}
}

// RunExpectNone asserts the analyzer is silent on the fixture,
// disregarding its want comments. Used for exemption checks: the same
// sources load a second time under an exempt import path and every
// finding must disappear.
func RunExpectNone(t *testing.T, a *lint.Analyzer, dir, asPath string) {
	t.Helper()
	diags, pkg := load(t, a, dir, asPath)
	for _, d := range diags {
		t.Errorf("%s: expected no %s diagnostics under %s, got: %s",
			pkg.Fset.Position(d.Pos), a.Name, asPath, d.Message)
	}
}

// load type-checks the fixture and runs a over it.
func load(t *testing.T, a *lint.Analyzer, dir, asPath string) ([]lint.Diagnostic, *lint.Package) {
	t.Helper()
	loader, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader(%s): %v", dir, err)
	}
	pkg, err := loader.LoadDir(dir, asPath)
	if err != nil {
		t.Fatalf("LoadDir(%s as %s): %v", dir, asPath, err)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	return diags, pkg
}

// collectWants indexes the fixture's expectation regexps by file:line.
func collectWants(t *testing.T, pkg *lint.Package) map[string][]*regexp.Regexp {
	t.Helper()
	out := make(map[string][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(body, "want ") && body != "want" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ms := backquoted.FindAllStringSubmatch(strings.TrimPrefix(body, "want"), -1)
				if len(ms) == 0 {
					t.Fatalf("%s: want comment without a backquoted pattern", pos)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, m[1], err)
					}
					key := posKey(pos)
					out[key] = append(out[key], re)
				}
			}
		}
	}
	return out
}

func posKey(pos token.Position) string {
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}
