// Package pintest compares a run's fields against a trajectory pinned in
// a testdata file, so a kernel rewrite is judged against what the kernels
// produced before it rather than against the same code run another way.
// A pin file is the fields' float64 words, little-endian, in the order
// given. `go test -update` (make pin-update) rewrites the files from the
// current code.
package pintest

import (
	"encoding/binary"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the pinned trajectories under testdata/pin from the current code")

// Field is one named array of a pinned state. Bound is the largest
// accepted max|got-want| / max|want|; zero demands a bitwise match.
type Field struct {
	Name  string
	Data  []float64
	Bound float64
}

// Check compares fields against the pin at path, logging the relative
// difference of each field and whether it is bitwise, and fails the test
// for a field beyond its bound. Under -update it writes the pin instead.
func Check(t *testing.T, path string, fields []Field) {
	t.Helper()
	words := 0
	for _, f := range fields {
		words += len(f.Data)
	}
	if *update {
		raw := make([]byte, 0, 8*words)
		for _, f := range fields {
			for _, x := range f.Data {
				raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x))
			}
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: wrote %d words", path, words)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if len(raw) != 8*words {
		t.Fatalf("%s: %d bytes, the run has %d words", path, len(raw), words)
	}
	for _, f := range fields {
		var diff, scale float64
		bitwise := true
		for i, got := range f.Data {
			want := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			bitwise = bitwise && math.Float64bits(got) == math.Float64bits(want)
			diff = math.Max(diff, math.Abs(got-want))
			scale = math.Max(scale, math.Abs(want))
		}
		raw = raw[8*len(f.Data):]
		rel := diff
		if scale > 0 {
			rel = diff / scale
		}
		t.Logf("%s %-8s max|a-b|/max|b| = %.3g (max|b| = %.3g) bitwise=%v", path, f.Name, rel, scale, bitwise)
		if !bitwise && !(rel <= f.Bound) {
			t.Errorf("%s %s: differs from the pin by %.3g of the field maximum, bound %.3g", path, f.Name, rel, f.Bound)
		}
	}
}
