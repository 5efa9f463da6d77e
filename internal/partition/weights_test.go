package partition

import (
	"slices"
	"testing"

	"gristgo/internal/mesh"
)

// ownedCounts returns the number of cells each part owns.
func ownedCounts(d *Decomposition, nparts int) []float64 {
	n := make([]float64, nparts)
	for _, p := range d.Part {
		n[p]++
	}
	return n
}

// cellImbalance is the largest part's cell count over the mean.
func cellImbalance(d *Decomposition, nparts int) float64 {
	return slices.Max(ownedCounts(d, nparts)) * float64(nparts) / float64(len(d.Part))
}

// The deterministic half of the rebalance feedback: a lockstep model of
// a skewed start. The first half of a BFS-ordered G4 mesh carries 8x
// cell weight, so four parts split it unevenly by cell count. Each part
// computes for as long as it owns cells; a lockstep step ends when the
// slowest part does, so every wall equals the largest compute and each
// part's halo wait is its wall minus its compute. Fed the walls,
// CostWeights sees equal costs over unequal cell counts and the next
// plan keeps the skew; fed wall minus wait, it sees the real per-cell
// cost and the next plan balances the cells.
func TestCostWeightsComputeFedPlanUndoesSkew(t *testing.T) {
	const nparts = 4
	m := mesh.New(4).ReorderBFS()
	skew := make([]int32, m.NCells)
	for c := range skew {
		skew[c] = 1
		if c < m.NCells/2 {
			skew[c] = 8
		}
	}
	start, err := DecomposeWeighted(m, nparts, EpochSeed(1, 0), skew)
	if err != nil {
		t.Fatal(err)
	}

	compute := ownedCounts(start, nparts)
	wall := slices.Max(compute)
	walls := make([]float64, nparts)
	attributed := make([]float64, nparts)
	for p := range walls {
		wait := wall - compute[p]
		walls[p] = wall
		attributed[p] = walls[p] - wait
	}
	replan := func(cost []float64) float64 {
		d, err := DecomposeWeighted(m, nparts, EpochSeed(1, 1), CostWeights(start.Part, nparts, cost))
		if err != nil {
			t.Fatal(err)
		}
		return cellImbalance(d, nparts)
	}
	skewed, wallFed, computeFed := cellImbalance(start, nparts), replan(walls), replan(attributed)
	t.Logf("cell imbalance: start %.3f, wall-fed %.3f, compute-fed %.3f", skewed, wallFed, computeFed)

	// Measured: start 1.995, wall-fed 1.408, compute-fed 1.030. The
	// wall-fed plan is less skewed than the start, yet far from balanced.
	if computeFed > 1.1 || computeFed > wallFed-0.25 {
		t.Errorf("compute-fed plan imbalance %.3f, want <= 1.1 and at least 0.25 below the wall-fed plan's %.3f",
			computeFed, wallFed)
	}
	if wallFed < 1.25 {
		t.Errorf("wall-fed plan imbalance %.3f: equal walls over unequal cell counts must keep the skew (start %.3f)",
			wallFed, skewed)
	}
}
