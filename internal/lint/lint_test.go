package lint

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestRunEmptyInput(t *testing.T) {
	diags, err := Run(nil, []*Analyzer{{Name: "x", Run: func(*Pass) error { return nil }}})
	if err != nil || diags != nil {
		t.Fatalf("Run(nil pkgs) = %v, %v; want nil, nil", diags, err)
	}
}

func TestEncodeJSON(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", "package p\n\nvar a int\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	pos := f.Decls[0].(*ast.GenDecl).Specs[0].(*ast.ValueSpec).Names[0].Pos()
	diags := []Diagnostic{{Pos: pos, Analyzer: "foo", Message: "m"}}
	raw, err := EncodeJSON(diags, fset, "")
	if err != nil {
		t.Fatal(err)
	}
	var out []JSONDiagnostic
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].File != "x.go" || out[0].Analyzer != "foo" || out[0].Line != 3 {
		t.Errorf("EncodeJSON = %+v", out)
	}
}
