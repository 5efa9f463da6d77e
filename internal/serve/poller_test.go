package serve

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"gristgo/internal/core"
	"gristgo/internal/dycore"
)

// writeEpoch commits one single-rank epoch into st from a fresh state.
func writeEpoch(t *testing.T, st *core.ShardStore, epoch, step int) *dycore.State {
	t.Helper()
	s := testState(st.Plan().NLev)
	// Perturb so each epoch is distinguishable.
	for i := range s.DryMass {
		s.DryMass[i] *= 1 + 1e-6*float64(epoch)
	}
	if err := st.WriteShard(epoch, 0, step, s); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(epoch, step); err != nil {
		t.Fatal(err)
	}
	return s
}

// The poller bridges committed checkpoint epochs to published
// snapshots: backfilling history on the first poll, then following
// the head incrementally.
func TestShardPollerFollowsCommits(t *testing.T) {
	pl := core.NewDistPlan(testMesh, 3, 1, 12345)
	st, err := core.NewShardStore(t.TempDir(), pl)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewSnapshotStore(4)
	p := NewShardPoller(st, dst)
	if p.Mesh() != testMesh {
		t.Fatal("poller mesh is not the plan mesh")
	}

	// Nothing committed yet: a poll is a no-op, not an error.
	if n, err := p.Poll(); err != nil || n != 0 {
		t.Fatalf("empty poll = (%d, %v), want (0, nil)", n, err)
	}

	// Three epochs committed before the first real poll: all published
	// (the replay-directory case).
	states := map[int]*dycore.State{}
	for e := 0; e < 3; e++ {
		states[e] = writeEpoch(t, st, e, e*10)
	}
	n, err := p.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("first poll published %d snapshots, want 3", n)
	}
	for e := 0; e < 3; e++ {
		snap, ok := dst.At(e)
		if !ok {
			t.Fatalf("epoch %d not published", e)
		}
		if snap.Step != e*10 {
			t.Fatalf("epoch %d published with step %d, want %d", e, snap.Step, e*10)
		}
		// The snapshot must reflect that epoch's state, not the head's.
		want := SnapshotFromState(e, e*10, states[e])
		if snap.Checksum() != want.Checksum() {
			t.Fatalf("epoch %d snapshot diverges from its committed state", e)
		}
	}

	// No news: no republish.
	if n, err := p.Poll(); err != nil || n != 0 {
		t.Fatalf("idle poll = (%d, %v), want (0, nil)", n, err)
	}

	// A new head is picked up incrementally.
	writeEpoch(t, st, 3, 30)
	if n, err := p.Poll(); err != nil || n != 1 {
		t.Fatalf("incremental poll = (%d, %v), want (1, nil)", n, err)
	}
	if dst.Latest().Epoch != 3 {
		t.Fatalf("Latest = %d, want 3", dst.Latest().Epoch)
	}
}

// The poller restores only what a snapshot reads (LoadEpochSurface), yet
// every snapshot it publishes must be bitwise the one SnapshotFromState
// derives from a full LoadEpochState of the same epoch. Each rank's
// shard is written with its halo mirrors changed after the owners'
// values were set, so both loads must also apply shards in the same
// order (the last rank's copy stands). The poller's scratch state is
// NaN-poisoned before every poll: a field or layer SnapshotFromState
// reads that the surface load does not restore fails here.
func TestShardPollerPublishesFullLoadBitwise(t *testing.T) {
	const nlev = 3
	for _, nparts := range []int{1, 4} {
		t.Run(fmt.Sprintf("nparts=%d", nparts), func(t *testing.T) {
			pl := core.NewDistPlan(testMesh, nlev, nparts, 12345)
			st, err := core.NewShardStore(t.TempDir(), pl)
			if err != nil {
				t.Fatal(err)
			}
			dst := NewSnapshotStore(4)
			p := NewShardPoller(st, dst)
			for e := 1; e <= 3; e++ {
				base := testState(nlev)
				for i := range base.ThetaM {
					base.ThetaM[i] *= 1 + 1e-4*float64(e)
				}
				for r := 0; r < nparts; r++ {
					s := base.Clone()
					for c := int32(0); c < int32(testMesh.NCells); c++ {
						if slices.Contains(pl.TendCells[r], c) {
							continue
						}
						for k := 0; k < nlev; k++ {
							i := int(c)*nlev + k
							s.DryMass[i] *= 1 + 1e-3*float64(r+1)
							s.ThetaM[i] *= 1 - 1e-3*float64(r+1)
						}
						for k := 0; k <= nlev; k++ {
							s.W[int(c)*(nlev+1)+k] += 0.01 * float64(r+1)
						}
					}
					for ed := int32(0); ed < int32(testMesh.NEdges); ed++ {
						if !slices.Contains(pl.UEdges[r], ed) {
							for k := 0; k < nlev; k++ {
								s.U[int(ed)*nlev+k] += 0.1 * float64(r+1)
							}
						}
					}
					if err := st.WriteShard(e, r, 10*e, s); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.Commit(e, 10*e); err != nil {
					t.Fatal(err)
				}

				for _, f := range [][]float64{p.scratch.DryMass, p.scratch.ThetaM, p.scratch.U, p.scratch.W, p.scratch.Phi, p.scratch.PhiSurf} {
					for i := range f {
						f[i] = math.NaN()
					}
				}
				if n, err := p.Poll(); err != nil || n != 1 {
					t.Fatalf("epoch %d: poll = (%d, %v), want (1, nil)", e, n, err)
				}
				full := dycore.NewState(testMesh, nlev)
				step, err := st.LoadEpochState(e, full)
				if err != nil {
					t.Fatal(err)
				}
				snap, ok := dst.At(e)
				if !ok {
					t.Fatalf("epoch %d not published", e)
				}
				if want := SnapshotFromState(e, step, full); snap.Checksum() != want.Checksum() || snap.Step != step {
					t.Fatalf("epoch %d: published snapshot (step %d) differs from SnapshotFromState of the full load (step %d)", e, snap.Step, step)
				}
			}
		})
	}
}
