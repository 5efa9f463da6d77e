package gdf

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

func sample() *File {
	f := &File{}
	f.AddDim("cell", 4)
	f.AddDim("lev", 3)
	_ = f.AddVar(Variable{
		Name:  "ps",
		Attrs: map[string]string{"units": "Pa", "long_name": "surface pressure"},
		Dims:  []string{"cell"},
		Data:  []float64{1e5, 99000, math.Pi, -0},
	})
	_ = f.AddVar(Variable{
		Name: "theta",
		Dims: []string{"cell", "lev"},
		Data: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		Attrs: map[string]string{
			"units": "K",
		},
	})
	return f
}

func TestRoundTrip(t *testing.T) {
	f := sample()
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Dims) != 2 || g.DimSize("cell") != 4 || g.DimSize("lev") != 3 {
		t.Fatalf("dims: %+v", g.Dims)
	}
	ps := g.Var("ps")
	if ps == nil || ps.Attrs["units"] != "Pa" {
		t.Fatalf("ps: %+v", ps)
	}
	for i, want := range f.Vars[0].Data {
		if ps.Data[i] != want {
			t.Fatalf("ps[%d] = %v", i, ps.Data[i])
		}
	}
	th := g.Var("theta")
	if th == nil || len(th.Data) != 12 || th.Dims[1] != "lev" {
		t.Fatalf("theta: %+v", th)
	}
}

func TestAddVarValidatesShape(t *testing.T) {
	f := &File{}
	f.AddDim("cell", 4)
	if err := f.AddVar(Variable{Name: "x", Dims: []string{"cell"}, Data: make([]float64, 3)}); err == nil {
		t.Error("wrong length accepted")
	}
	if err := f.AddVar(Variable{Name: "x", Dims: []string{"nope"}, Data: make([]float64, 3)}); err == nil {
		t.Error("unknown dimension accepted")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE----"))); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated file.
	f := sample()
	var buf bytes.Buffer
	_ = f.Write(&buf)
	if _, err := Read(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated file accepted")
	}
}

func TestDeterministicEncoding(t *testing.T) {
	var a, b bytes.Buffer
	_ = sample().Write(&a)
	_ = sample().Write(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("encoding not deterministic (attribute order?)")
	}
}

func TestMissingVar(t *testing.T) {
	if sample().Var("absent") != nil {
		t.Error("missing variable found")
	}
}

// header builds a payload by hand: dims, then one variable "v" over the
// given dimension indices, with no values behind it.
func header(sizes []uint64, over []uint32) []byte {
	var b bytes.Buffer
	put := func(v any) { _ = binary.Write(&b, binary.LittleEndian, v) }
	put(uint32(len(sizes)))
	for _, s := range sizes {
		put(uint32(1))
		b.WriteByte('d')
		put(s)
	}
	put(uint32(1)) // nvars
	put(uint32(1))
	b.WriteByte('v')
	put(uint32(0)) // nattrs
	put(uint32(len(over)))
	put(over)
	return b.Bytes()
}

// Read sizes its allocations from the file, so every count and size must
// be bounded by the bytes that remain: a ~50-byte file must not panic or
// ask for gigabytes.
func TestReadBoundsSizesByInput(t *testing.T) {
	cases := []struct {
		name    string
		raw     []byte
		wantSub string
	}{
		{"one 2^40 dimension", header([]uint64{1 << 40}, []uint32{0}), `variable "v"`},
		{"product overflows int", header([]uint64{1 << 32, 1 << 32}, []uint32{0, 1}), `variable "v"`},
		{"negative dimension", header([]uint64{1 << 63}, []uint32{0}), "negative"},
		{"huge ndims", []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, "dimension count"},
		{"huge nvars", []byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}, "variable count"},
		{"huge name", []byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f, 'x', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, "dimension name"},
	}
	for _, c := range cases {
		_, err := Read(bytes.NewReader(c.raw))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
	// A zero-sized dimension makes the product zero whatever its
	// neighbours say: legal, and nothing to allocate.
	f, err := Read(bytes.NewReader(header([]uint64{0, 1 << 40}, []uint32{0, 1})))
	if err != nil || len(f.Vars) != 1 || len(f.Vars[0].Data) != 0 {
		t.Fatalf("zero-sized variable: (%+v, %v)", f, err)
	}
}

// FuzzGDFRead: arbitrary bytes never panic Read, and what it returns was
// paid for by the input — no more values than the bytes could hold.
func FuzzGDFRead(f *testing.F) {
	var buf bytes.Buffer
	_ = sample().Write(&buf)
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(header([]uint64{1 << 40}, []uint32{0}))
	f.Add(header([]uint64{1 << 32, 1 << 32}, []uint32{0, 1}))
	f.Add(header([]uint64{0, 1 << 40}, []uint32{0, 1}))
	f.Add(header([]uint64{3}, []uint32{9}))
	for _, i := range []int{0, 4, 9, 21, 25, len(good) / 2} {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x80
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		values := 0
		for _, v := range g.Vars {
			values += len(v.Data)
		}
		if 8*values > len(data) {
			t.Fatalf("%d bytes of input decoded to %d values", len(data), values)
		}
	})
}
