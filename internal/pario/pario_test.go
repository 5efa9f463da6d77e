package pario

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"

	"gristgo/internal/comm"
	"gristgo/internal/durable"
	"gristgo/internal/mesh"
	"gristgo/internal/partition"
)

func TestGroupArithmetic(t *testing.T) {
	if GroupOf(0, 64) != 0 || GroupOf(63, 64) != 0 || GroupOf(64, 64) != 1 {
		t.Error("GroupOf wrong")
	}
	if LeaderOf(70, 64) != 64 {
		t.Error("LeaderOf wrong")
	}
	if NumGroups(128, 64) != 2 || NumGroups(129, 64) != 3 {
		t.Error("NumGroups wrong")
	}
}

func TestGroupedWriteReadRoundTrip(t *testing.T) {
	m := mesh.New(3)
	nparts := 8
	groupSize := 4
	d := partition.MustDecompose(m, nparts, 21)

	truth := make([]float64, m.NCells)
	for c := range truth {
		truth[c] = rand.New(rand.NewSource(int64(c))).Float64() * 100
	}

	nGroups := NumGroups(nparts, groupSize)
	buffers := make([]*bytes.Buffer, nGroups)
	for i := range buffers {
		buffers[i] = &bytes.Buffer{}
	}
	var mu sync.Mutex

	comm.Run(nparts, func(r *comm.Rank) {
		owned := d.Owned[r.ID()]
		vals := make([]float64, len(owned))
		for i, c := range owned {
			vals[i] = truth[c]
		}
		var w *bytes.Buffer
		if r.ID() == LeaderOf(r.ID(), groupSize) {
			w = buffers[GroupOf(r.ID(), groupSize)]
		}
		mu.Lock() // serialize leader writes for the test buffers
		err := func() error {
			mu.Unlock()
			var e error
			if w != nil {
				e = WriteOwned(r, groupSize, owned, vals, w, 500)
			} else {
				e = WriteOwned(r, groupSize, owned, vals, nil, 500)
			}
			mu.Lock()
			return e
		}()
		mu.Unlock()
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
	})

	got, err := ReadAll(m.NCells, toReaders(buffers)...)
	if err != nil {
		t.Fatal(err)
	}
	for c := range truth {
		if got[c] != truth[c] {
			t.Fatalf("cell %d: %v != %v", c, got[c], truth[c])
		}
	}
}

func toReaders(bufs []*bytes.Buffer) []io.Reader {
	rs := make([]io.Reader, len(bufs))
	for i, b := range bufs {
		rs[i] = b
	}
	return rs
}

func TestReadAllRejectsDuplicates(t *testing.T) {
	var buf bytes.Buffer
	comm.Run(1, func(r *comm.Rank) {
		owned := []int32{1, 1}
		vals := []float64{2, 3}
		if err := WriteOwned(r, 1, owned, vals, &buf, 7); err != nil {
			t.Error(err)
		}
	})
	if _, err := ReadAll(4, &buf); err == nil {
		t.Error("duplicate index accepted")
	}
}

// A leader stream is a durable pario record: the container's corruption
// table is in internal/durable, this only proves ReadAll is on it.
func TestReadAllRejectsBadMagic(t *testing.T) {
	var buf bytes.Buffer
	comm.Run(1, func(r *comm.Rank) {
		if err := WriteOwned(r, 1, []int32{1}, []float64{2}, &buf, 8); err != nil {
			t.Error(err)
		}
	})
	raw := buf.Bytes()
	copy(raw, "GDFX")
	if _, err := ReadAll(4, bytes.NewReader(raw)); !errors.Is(err, durable.ErrCorrupt) {
		t.Errorf("bad magic: err = %v, want durable.ErrCorrupt", err)
	}
	// A whole record of another kind is refused before its payload is parsed.
	var restart bytes.Buffer
	_ = durable.Encode(&restart, durable.Restart, func(w io.Writer) error { _, err := w.Write(make([]byte, 12)); return err })
	if _, err := ReadAll(4, &restart); !errors.Is(err, durable.ErrCorrupt) {
		t.Errorf("restart record offered as a leader stream: err = %v, want durable.ErrCorrupt", err)
	}
}

func TestWriteOwnedErrors(t *testing.T) {
	comm.Run(1, func(r *comm.Rank) {
		// Length mismatch.
		if err := WriteOwned(r, 1, []int32{1, 2}, []float64{1}, &bytes.Buffer{}, 9); err == nil {
			t.Error("length mismatch accepted")
		}
		// Leader without a writer.
		if err := WriteOwned(r, 1, []int32{1}, []float64{1}, nil, 10); err == nil {
			t.Error("nil writer accepted for leader")
		}
	})
}

func TestReadAllOutOfRangeIndex(t *testing.T) {
	var buf bytes.Buffer
	comm.Run(1, func(r *comm.Rank) {
		_ = WriteOwned(r, 1, []int32{9}, []float64{1}, &buf, 11)
	})
	if _, err := ReadAll(4, &buf); err == nil {
		t.Error("out-of-range index accepted")
	}
}
