// Package gdf implements the GRIST Data Format: a minimal
// self-describing binary container for model output — named dimensions,
// attributed variables, float64 payloads — standing in for the NetCDF
// history files the paper's model writes (stdlib-only substitution).
//
// Layout (little-endian), the payload of a durable history record —
// cmd/grist frames it (magic, version, CRC32) when it writes the file
// and cmd/gdfdump verifies the frame before parsing:
//
//	ndims | {nameLen name size}* | nvars |
//	{nameLen name nattrs {keyLen key valLen val}* ndims {dimIdx}* data}*
package gdf

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
)

// Dimension is a named axis length.
type Dimension struct {
	Name string
	Size int
}

// Variable is a data array over an ordered list of dimensions.
type Variable struct {
	Name  string
	Attrs map[string]string
	Dims  []string  // dimension names, slowest-varying first
	Data  []float64 // len = product of dimension sizes
}

// File is an in-memory GDF dataset.
type File struct {
	Dims []Dimension
	Vars []Variable
}

// AddDim registers a dimension and returns its index.
func (f *File) AddDim(name string, size int) int {
	f.Dims = append(f.Dims, Dimension{Name: name, Size: size})
	return len(f.Dims) - 1
}

// DimSize returns the size of a named dimension, or -1.
func (f *File) DimSize(name string) int {
	for _, d := range f.Dims {
		if d.Name == name {
			return d.Size
		}
	}
	return -1
}

// AddVar appends a variable after validating its shape against the
// registered dimensions.
func (f *File) AddVar(v Variable) error {
	want := 1
	for _, dn := range v.Dims {
		s := f.DimSize(dn)
		if s < 0 {
			return fmt.Errorf("gdf: variable %q uses unknown dimension %q", v.Name, dn)
		}
		want *= s
	}
	if len(v.Data) != want {
		return fmt.Errorf("gdf: variable %q has %d values, dims imply %d", v.Name, len(v.Data), want)
	}
	f.Vars = append(f.Vars, v)
	return nil
}

// Var returns the named variable, or nil.
func (f *File) Var(name string) *Variable {
	for i := range f.Vars {
		if f.Vars[i].Name == name {
			return &f.Vars[i]
		}
	}
	return nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// Write serializes the dataset.
func (f *File) Write(w io.Writer) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(f.Dims))); err != nil {
		return err
	}
	dimIdx := map[string]uint32{}
	for i, d := range f.Dims {
		if err := writeString(w, d.Name); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint64(d.Size)); err != nil {
			return err
		}
		dimIdx[d.Name] = uint32(i)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(f.Vars))); err != nil {
		return err
	}
	for _, v := range f.Vars {
		if err := writeString(w, v.Name); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(len(v.Attrs))); err != nil {
			return err
		}
		// Deterministic attribute order.
		keys := make([]string, 0, len(v.Attrs))
		for k := range v.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := writeString(w, k); err != nil {
				return err
			}
			if err := writeString(w, v.Attrs[k]); err != nil {
				return err
			}
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(len(v.Dims))); err != nil {
			return err
		}
		for _, dn := range v.Dims {
			idx, ok := dimIdx[dn]
			if !ok {
				return fmt.Errorf("gdf: variable %q references unknown dimension %q", v.Name, dn)
			}
			if err := binary.Write(w, binary.LittleEndian, idx); err != nil {
				return err
			}
		}
		bits := make([]uint64, len(v.Data))
		for i, x := range v.Data {
			bits[i] = math.Float64bits(x)
		}
		if err := binary.Write(w, binary.LittleEndian, bits); err != nil {
			return err
		}
	}
	return nil
}

// cursor walks an in-memory payload. Every count and size read from it
// is bounded by the bytes that remain before anything is allocated, so a
// hostile header cannot ask for more memory than the file is long.
type cursor struct{ b []byte }

func (c *cursor) take(n uint64, what string) ([]byte, error) {
	if n > uint64(len(c.b)) {
		return nil, fmt.Errorf("gdf: %s needs %d bytes, %d remain", what, n, len(c.b))
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out, nil
}

// count reads a uint32 element count whose elements occupy at least
// each bytes apiece.
func (c *cursor) count(each int, what string) (int, error) {
	raw, err := c.take(4, what)
	if err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(raw)
	if uint64(n)*uint64(each) > uint64(len(c.b)) {
		return 0, fmt.Errorf("gdf: %s %d exceeds the %d bytes that remain", what, n, len(c.b))
	}
	return int(n), nil
}

func (c *cursor) str(what string) (string, error) {
	n, err := c.count(1, what+" length")
	if err != nil {
		return "", err
	}
	raw, err := c.take(uint64(n), what)
	return string(raw), err
}

// Read parses a dataset written by Write.
func Read(r io.Reader) (*File, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	c := &cursor{b: raw}
	var f File
	ndims, err := c.count(4+8, "dimension count")
	if err != nil {
		return nil, err
	}
	for i := 0; i < ndims; i++ {
		name, err := c.str("dimension name")
		if err != nil {
			return nil, err
		}
		raw, err := c.take(8, "dimension size")
		if err != nil {
			return nil, err
		}
		size := binary.LittleEndian.Uint64(raw)
		if size > math.MaxInt {
			return nil, fmt.Errorf("gdf: dimension %q has negative size", name)
		}
		f.Dims = append(f.Dims, Dimension{Name: name, Size: int(size)})
	}
	nvars, err := c.count(4+4+4, "variable count")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nvars; i++ {
		var v Variable
		if v.Name, err = c.str("variable name"); err != nil {
			return nil, err
		}
		nattrs, err := c.count(4+4, "attribute count of "+v.Name)
		if err != nil {
			return nil, err
		}
		v.Attrs = map[string]string{}
		for a := 0; a < nattrs; a++ {
			k, err := c.str("attribute key")
			if err != nil {
				return nil, err
			}
			if v.Attrs[k], err = c.str("attribute value"); err != nil {
				return nil, err
			}
		}
		nd, err := c.count(4, "dimension list of "+v.Name)
		if err != nil {
			return nil, err
		}
		idx, err := c.take(4*uint64(nd), "dimension list of "+v.Name)
		if err != nil {
			return nil, err
		}
		// The values are what is left to read for this variable, so their
		// count — and every partial product on the way to it — is bounded
		// by the bytes that remain.
		size, limit := 1, len(c.b)/8
		for d := 0; d < nd; d++ {
			di := binary.LittleEndian.Uint32(idx[4*d:])
			if int(di) >= len(f.Dims) {
				return nil, fmt.Errorf("gdf: variable %q: dimension index %d out of range", v.Name, di)
			}
			dim := f.Dims[di]
			v.Dims = append(v.Dims, dim.Name)
			if dim.Size != 0 && size > limit/dim.Size {
				return nil, fmt.Errorf("gdf: variable %q: size over dimension %q (%d) exceeds the %d bytes that remain",
					v.Name, dim.Name, dim.Size, len(c.b))
			}
			size *= dim.Size
		}
		data, err := c.take(8*uint64(size), "values of "+v.Name)
		if err != nil {
			return nil, err
		}
		v.Data = make([]float64, size)
		for j := range v.Data {
			v.Data[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*j:]))
		}
		f.Vars = append(f.Vars, v)
	}
	return &f, nil
}
