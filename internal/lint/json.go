package lint

// Machine-readable output. The text format on stdout is for humans at a
// terminal; scripts and CI get a flat JSON array, encoded from the same
// []Diagnostic the text path prints, so the two formats can never
// disagree about what was found.

import (
	"encoding/json"
	"go/token"
	"path/filepath"
	"strings"
)

// JSONDiagnostic is one finding in the -format json output.
type JSONDiagnostic struct {
	File     string `json:"file"` // module-root-relative when root is given
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// EncodeJSON renders diagnostics as a JSON array. root, when non-empty,
// relativizes file paths (the module root, so output is stable across
// checkouts).
func EncodeJSON(diags []Diagnostic, fset *token.FileSet, root string) ([]byte, error) {
	out := make([]JSONDiagnostic, 0, len(diags))
	for _, d := range diags {
		pos := d.Position(fset)
		out = append(out, JSONDiagnostic{
			File:     relPath(root, pos.Filename),
			Line:     pos.Line,
			Column:   pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// relPath relativizes path against root when possible; otherwise the
// path is returned unchanged.
func relPath(root, path string) string {
	if root == "" {
		return path
	}
	rel, err := filepath.Rel(root, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
