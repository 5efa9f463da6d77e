// Package pario implements the grouped parallel I/O strategy of §3.1.3:
// with hundreds of thousands of MPI processes, letting every rank open
// the filesystem collapses it, so ranks are organized into I/O groups;
// members gather their owned data to a group leader, and only the
// leaders stream framed records to storage.
package pario

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"gristgo/internal/comm"
	"gristgo/internal/durable"
	"gristgo/internal/telemetry"
	"gristgo/internal/vfs"
)

// GroupSize is the default number of ranks per I/O group.
const GroupSize = 64

// Package-level telemetry: grouped writes happen on many ranks at once,
// so the sinks are shared and swapped atomically. A nil recorder/registry
// disables the corresponding output.
var (
	telRec   atomic.Pointer[telemetry.Recorder]
	bytesCtr atomic.Pointer[telemetry.Counter]
)

// SetTelemetry attaches observability to the package: every WriteOwned
// emits a pario_write span attributed to the calling rank into rec and
// accumulates the framed bytes leaders emit into reg's
// grist_pario_bytes_total counter. Nil detaches either sink.
func SetTelemetry(rec *telemetry.Recorder, reg *telemetry.Registry) {
	telRec.Store(rec)
	if reg == nil {
		bytesCtr.Store(nil)
		return
	}
	bytesCtr.Store(reg.Counter("grist_pario_bytes_total"))
}

// GroupOf returns the I/O group index of a rank.
func GroupOf(rank, groupSize int) int { return rank / groupSize }

// LeaderOf returns the leader rank of the group containing rank.
func LeaderOf(rank, groupSize int) int { return rank / groupSize * groupSize }

// NumGroups returns how many groups n ranks form.
func NumGroups(n, groupSize int) int { return (n + groupSize - 1) / groupSize }

// A leader stream is one durable pario record whose payload is a run of
// [globalIndex uint32][value float64] pairs, little-endian.
const recLen = 4 + 8

// WriteOwned performs the grouped write of a distributed field: every
// rank contributes (globalIndex, value) pairs for the cells it owns;
// members send their pairs to the group leader with one message, and
// leaders emit framed records to w. Only leaders may receive a non-nil
// writer; non-leader ranks pass w == nil. The tag namespace must be
// unique per call site.
//
//grist:durable
func WriteOwned(r *comm.Rank, groupSize int, owned []int32, values []float64, w io.Writer, tag int) error {
	sp := telRec.Load().Begin("pario_write", int32(r.ID()))
	defer sp.End()
	if len(owned) != len(values) {
		return errors.New("pario: owned/values length mismatch")
	}
	leader := LeaderOf(r.ID(), groupSize)

	// Pack local pairs as float64 pairs (index, value) for transport.
	buf := make([]float64, 0, 2*len(owned))
	for i, c := range owned {
		buf = append(buf, float64(c), values[i])
	}

	if r.ID() != leader {
		r.Send(leader, tag, buf)
		return nil
	}

	if w == nil {
		return errors.New("pario: leader rank needs a writer")
	}
	// Gather group members (they follow the leader in rank order).
	groupEnd := leader + groupSize
	if groupEnd > r.Size() {
		groupEnd = r.Size()
	}
	all := [][]float64{buf}
	for src := leader + 1; src < groupEnd; src++ {
		all = append(all, r.Recv(src, tag))
	}
	count := 0
	err := durable.Encode(w, durable.Pario, func(w io.Writer) error {
		rec := make([]byte, recLen)
		for _, b := range all {
			for i := 0; i+1 < len(b); i += 2 {
				binary.LittleEndian.PutUint32(rec[0:], uint32(b[i]))
				binary.LittleEndian.PutUint64(rec[4:], math.Float64bits(b[i+1]))
				if _, err := w.Write(rec); err != nil {
					return err
				}
				count++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if c := bytesCtr.Load(); c != nil {
		c.Add(int64(durable.Overhead + recLen*count))
	}
	return nil
}

// WriteOwnedFile is WriteOwned with the leader stream landing durably
// at path on an injectable filesystem (durable.Replace: temp, sync,
// rename), so a fault mid-write never leaves a partial file under the
// output name. Non-leader ranks participate in the gather exactly as in
// WriteOwned and never touch the filesystem.
//
//grist:durable
func WriteOwnedFile(fsys vfs.FS, path string, r *comm.Rank, groupSize int, owned []int32, values []float64, tag int) error {
	if r.ID() != LeaderOf(r.ID(), groupSize) {
		return WriteOwned(r, groupSize, owned, values, nil, tag)
	}
	return durable.Replace(fsys, path, func(w io.Writer) error {
		return WriteOwned(r, groupSize, owned, values, w, tag)
	})
}

// ReadAll parses one or more leader streams and scatters the records
// into a dense field of length n. Missing indices stay zero; duplicate
// indices are an error.
func ReadAll(n int, readers ...io.Reader) ([]float64, error) {
	out := make([]float64, n)
	seen := make([]bool, n)
	for ri, rd := range readers {
		raw, err := io.ReadAll(rd)
		if err != nil {
			return nil, fmt.Errorf("pario: reader %d: %w", ri, err)
		}
		recs, err := durable.Decode(raw, durable.Pario)
		if err != nil {
			return nil, fmt.Errorf("pario: reader %d: %w", ri, err)
		}
		if len(recs)%recLen != 0 {
			return nil, fmt.Errorf("pario: reader %d: %d payload bytes is not a whole number of records: %w", ri, len(recs), durable.ErrCorrupt)
		}
		for ; len(recs) > 0; recs = recs[recLen:] {
			idx := binary.LittleEndian.Uint32(recs)
			if int(idx) >= n {
				return nil, fmt.Errorf("pario: index %d out of range %d", idx, n)
			}
			if seen[idx] {
				return nil, fmt.Errorf("pario: duplicate index %d", idx)
			}
			seen[idx] = true
			out[idx] = math.Float64frombits(binary.LittleEndian.Uint64(recs[4:]))
		}
	}
	return out, nil
}
