package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gristgo/internal/dycore"
	"gristgo/internal/fault"
	"gristgo/internal/obs"
	"gristgo/internal/partition"
	"gristgo/internal/telemetry"
)

// TestBitwiseRootsReproduce holds the rule that makes repartition and
// rollback-and-replay agreement-free: every rank derives the same plan,
// shard bytes and fault verdicts from (seed, coordinates, epoch) alone.
// Each row is one function whose output ranks must agree on. It writes
// that output for fixed inputs, and the SHA-256 of six writes — two
// under each of GOMAXPROCS 1, 2 and 4 — must be equal. Map iteration
// order, the clock and the global math/rand stream all change between
// two calls in one process, so a row reading any of them fails here.
func TestBitwiseRootsReproduce(t *testing.T) {
	m := sharedMesh3
	const nlev = 3
	s := dycore.NewState(m, nlev)
	resilientInit(s)
	pl3 := NewDistPlan(m, nlev, 3, 12345)
	d, err := partition.DecomposeWeighted(m, 2, partition.EpochSeed(12345, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Epoch = 1
	pl2 := NewDistPlanFromDecomp(m, nlev, d)

	// store writes epoch 1's shards under pl3 into a fresh directory, and
	// commits them when commit is set.
	store := func(t *testing.T, commit bool) *ShardStore {
		st, err := NewShardStore(t.TempDir(), pl3)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < pl3.NParts; p++ {
			if err := st.WriteShard(1, p, 5, s); err != nil {
				t.Fatal(err)
			}
		}
		if commit {
			if err := st.Commit(1, 5); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	tl := obs.Merge(tieRings(), 0)
	pm := obs.Build(tl, 2)

	rows := []struct {
		name  string
		write func(t *testing.T, w io.Writer)
	}{
		{"core.WriteShard", func(t *testing.T, w io.Writer) { writeDir(t, w, store(t, false).Dir()) }},
		{"core.Commit", func(t *testing.T, w io.Writer) { writeDir(t, w, store(t, true).Dir()) }},
		{"core.Redistribute", func(t *testing.T, w io.Writer) {
			st := store(t, true)
			if err := st.Redistribute(1, 5, pl2); err != nil {
				t.Fatal(err)
			}
			writeDir(t, w, st.Dir())
		}},
		{"obs.Merge", func(t *testing.T, w io.Writer) { writeJSON(t, w, obs.Merge(tieRings(), 0)) }},
		{"obs.CriticalPath", func(t *testing.T, w io.Writer) {
			for i := range tl.Steps {
				path, work := obs.CriticalPath(&tl.Steps[i])
				writeJSON(t, w, path)
				writeJSON(t, w, work)
			}
		}},
		{"obs.Build", func(t *testing.T, w io.Writer) {
			if err := obs.Build(tl, 2).EncodeJSON(w); err != nil {
				t.Fatal(err)
			}
		}},
		{"obs.ComputeWeights", func(t *testing.T, w io.Writer) { writeJSON(t, w, pm.ComputeWeights(tl)) }},
		{"partition.EpochSeed", func(t *testing.T, w io.Writer) {
			for _, seed := range []int64{0, 1, 12345, -7} {
				for epoch := 0; epoch < 8; epoch++ {
					writeJSON(t, w, partition.EpochSeed(seed, epoch))
				}
			}
		}},
		{"partition.CostWeights", func(t *testing.T, w io.Writer) {
			writeJSON(t, w, partition.CostWeights(pl3.Decomp.Part, 3, []float64{1.5, 0.25, 3}))
		}},
		{"fault.Plan.OnSend", func(t *testing.T, w io.Writer) {
			for _, name := range strings.Split(fault.Profiles(), ", ") {
				prof, err := fault.ParseProfile(name)
				if err != nil {
					t.Fatal(err)
				}
				plan := fault.NewPlan(42, prof)
				for from := 0; from < 3; from++ {
					for to := 0; to < 3; to++ {
						for _, tag := range []int{-3, 100, 101, 257} {
							for attempt := 0; attempt < 3; attempt++ {
								payload := bytes.Repeat([]byte{byte(from), byte(to), byte(tag), byte(attempt)}, 64)
								drop, delay := plan.OnSend(from, to, tag, attempt, payload)
								writeJSON(t, w, []any{drop, delay, payload})
							}
						}
					}
				}
			}
		}},
	}

	procs := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	for _, row := range rows {
		var want []byte
		for _, n := range []int{1, 1, 2, 2, 4, 4} {
			runtime.GOMAXPROCS(n)
			h := sha256.New()
			row.write(t, h)
			got := h.Sum(nil)
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("%s: output under GOMAXPROCS %d hashes to %x, the first run to %x", row.name, n, got, want)
				break
			}
		}
	}
}

// writeDir writes every file of dir, in name order, as its name and its
// bytes.
func writeDir(t *testing.T, w io.Writer, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(w, e.Name())
		w.Write(b)
	}
}

func writeJSON(t *testing.T, w io.Writer, v any) {
	t.Helper()
	if err := json.NewEncoder(w).Encode(v); err != nil {
		t.Fatal(err)
	}
}

// tieRings is four ranks' flight-recorder rings over four steps. In
// every step ranks 1, 2 and 3 tie on the slowest wall and rank 0 is
// faster, so a top-2 straggler list has to break a three-way tie.
func tieRings() [][]telemetry.Event {
	rings := make([][]telemetry.Event, 4)
	for rank := range rings {
		var ring []telemetry.Event
		for step := int64(1); step <= 4; step++ {
			compute, wait := int64(60_000+1_000*step), int64(20_000)
			if rank == 0 {
				compute, wait = 20_000, 10_000
			}
			t0 := (step - 1) * 200_000
			at := t0
			for _, sp := range []struct {
				name string
				dur  int64
			}{{"halo_pack", 5_000}, {"interior", compute}, {"halo_wait", wait}, {"halo_unpack", 3_000}, {"boundary", 10_000}} {
				ring = append(ring, telemetry.Event{Name: sp.name, Rank: int32(rank), Step: step, Start: at, Dur: sp.dur})
				at += sp.dur
			}
			ring = append(ring, telemetry.Event{Name: "dyn_step", Rank: int32(rank), Step: step, Start: t0, Dur: at - t0})
		}
		rings[rank] = ring
	}
	return rings
}
