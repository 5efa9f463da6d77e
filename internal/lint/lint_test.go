package lint

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

const ignoreSrc = `package p

//lint:ignore foo pinned term feeds a declared-float32 wire format
var a int

//lint:ignore foo
var b int

var c int //lint:ignore foo,bar both checks audited against the overlap design

//lint:ignore * scratch file, excluded from the invariants
var d int
`

func parseIgnoreSrc(t *testing.T) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", ignoreSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

// varPos returns the position of the i-th package-level var name.
func varPos(f *ast.File, i int) token.Pos {
	return f.Decls[i].(*ast.GenDecl).Specs[0].(*ast.ValueSpec).Names[0].Pos()
}

func TestIgnoreDirectives(t *testing.T) {
	fset, f := parseIgnoreSrc(t)
	ig := collectIgnores(fset, []*ast.File{f})

	if len(ig.malformed) != 1 {
		t.Fatalf("malformed directives: got %d, want 1", len(ig.malformed))
	}
	if ig.malformed[0].Analyzer != "lint" {
		t.Errorf("malformed directive reported under %q, want \"lint\"", ig.malformed[0].Analyzer)
	}

	cases := []struct {
		name     string
		declIdx  int
		analyzer string
		want     bool
	}{
		{"directive above covers next line", 0, "foo", true},
		{"directive names only foo", 0, "bar", false},
		{"missing reason suppresses nothing", 1, "foo", false},
		{"end-of-line list, first name", 2, "foo", true},
		{"end-of-line list, second name", 2, "bar", true},
		{"end-of-line list, other analyzer", 2, "baz", false},
		{"wildcard covers everything", 3, "anything", true},
	}
	for _, tc := range cases {
		d := Diagnostic{Pos: varPos(f, tc.declIdx), Analyzer: tc.analyzer}
		if got := ig.suppresses(fset, d); got != tc.want {
			t.Errorf("%s: suppresses=%v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRunEmptyInput(t *testing.T) {
	diags, err := Run(nil, []*Analyzer{{Name: "x", Run: func(*Pass) error { return nil }}})
	if err != nil || diags != nil {
		t.Fatalf("Run(nil pkgs) = %v, %v; want nil, nil", diags, err)
	}
}

// A directive covers its own line and the next — one line further down
// and the diagnostic must survive.
const wrongLineSrc = `package p

//lint:ignore foo an early directive must not leak downward
var gap int

var e int
`

func TestIgnoreWrongLine(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", wrongLineSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ig := collectIgnores(fset, []*ast.File{f})
	covered := Diagnostic{Pos: varPos(f, 0), Analyzer: "foo"} // var gap, next line
	if !ig.suppresses(fset, covered) {
		t.Errorf("directive must cover the next line (var gap)")
	}
	past := Diagnostic{Pos: varPos(f, 1), Analyzer: "foo"} // var e, two lines down
	if ig.suppresses(fset, past) {
		t.Errorf("directive two lines up must not suppress (var e)")
	}
}

func TestCountIgnores(t *testing.T) {
	fset, f := parseIgnoreSrc(t)
	counts := CountIgnores([]*Package{{Fset: fset, Files: []*ast.File{f}}})
	// ignoreSrc holds: foo (reasoned), foo (malformed: excluded),
	// foo,bar (both counted), * (wildcard bucket).
	want := map[string]int{"foo": 2, "bar": 1, "*": 1}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("CountIgnores[%q] = %d, want %d", k, counts[k], v)
		}
	}
	if len(counts) != len(want) {
		t.Errorf("CountIgnores = %v, want exactly %v", counts, want)
	}
}

func TestBaselineBudget(t *testing.T) {
	b := &Baseline{Ignores: map[string]int{"foo": 1, "bar": 2}}

	// Within budget: no violations, no notes.
	if v, n := b.Check(map[string]int{"foo": 1, "bar": 2}); len(v) != 0 || len(n) != 0 {
		t.Errorf("equal counts: violations=%v notes=%v, want none", v, n)
	}

	// Growth fails, naming the analyzer and both counts.
	v, _ := b.Check(map[string]int{"foo": 3, "bar": 2})
	if len(v) != 1 || !strings.Contains(v[0], `"foo"`) ||
		!strings.Contains(v[0], "3") || !strings.Contains(v[0], "baseline allows 1") {
		t.Errorf("budget growth: violations = %v", v)
	}

	// A suppression for an analyzer the baseline has never seen is also
	// growth (implicit budget zero).
	if v, _ := b.Check(map[string]int{"foo": 1, "bar": 2, "new": 1}); len(v) != 1 {
		t.Errorf("unbudgeted analyzer: violations = %v, want 1", v)
	}

	// Shrinking passes but asks for a ratchet-down.
	v, n := b.Check(map[string]int{"foo": 1})
	if len(v) != 0 || len(n) != 1 || !strings.Contains(n[0], `"bar"`) {
		t.Errorf("budget shrink: violations=%v notes=%v", v, n)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteBaseline(path, map[string]int{"foo": 2}); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Ignores["foo"] != 2 {
		t.Errorf("round trip: got %v", b.Ignores)
	}
	if _, err := ReadBaseline(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Errorf("reading a missing baseline must fail")
	}
}

func TestEncodeJSON(t *testing.T) {
	fset, f := parseIgnoreSrc(t)
	diags := []Diagnostic{{Pos: varPos(f, 0), Analyzer: "foo", Message: "m"}}
	raw, err := EncodeJSON(diags, fset, "")
	if err != nil {
		t.Fatal(err)
	}
	var out []JSONDiagnostic
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].File != "x.go" || out[0].Analyzer != "foo" || out[0].Line == 0 {
		t.Errorf("EncodeJSON = %+v", out)
	}
}
