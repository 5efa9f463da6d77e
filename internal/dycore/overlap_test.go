package dycore

import (
	"slices"
	"testing"

	"gristgo/internal/mesh"
	"gristgo/internal/precision"
)

// ringOwned builds a plausible OwnedSets from a cell predicate: owned
// cells, their one-ring diagnostic halo, the edges of the diagnostic
// region, and owned edges (lower-id adjacent cell owns the edge) — the
// same shape core.DistPlan produces, without importing core.
func ringOwned(m *mesh.Mesh, pick func(c int32) bool) *OwnedSets {
	o := &OwnedSets{}
	owned := make([]bool, m.NCells)
	for c := int32(0); c < int32(m.NCells); c++ {
		if pick(c) {
			o.TendCells = append(o.TendCells, c)
			owned[c] = true
		}
	}
	diag := make([]bool, m.NCells)
	for _, c := range o.TendCells {
		diag[c] = true
		for k := m.CellOff[c]; k < m.CellOff[c+1]; k++ {
			if n := m.CellCell[k]; n >= 0 {
				diag[n] = true
			}
		}
	}
	for c := int32(0); c < int32(m.NCells); c++ {
		if diag[c] {
			o.DiagCells = append(o.DiagCells, c)
		}
	}
	edgeIn := make([]bool, m.NEdges)
	for _, c := range o.DiagCells {
		for k := m.CellOff[c]; k < m.CellOff[c+1]; k++ {
			edgeIn[m.CellEdge[k]] = true
		}
	}
	for e := int32(0); e < int32(m.NEdges); e++ {
		if edgeIn[e] {
			o.FluxEdges = append(o.FluxEdges, e)
		}
		a, b := m.EdgeCell[e][0], m.EdgeCell[e][1]
		own := a
		if b >= 0 && b < a {
			own = b
		}
		if owned[own] {
			o.UEdges = append(o.UEdges, e)
		}
	}
	return o
}

// sameSets compares the six entity sets, list and split point.
func sameSets(t *testing.T, got, want *splitSets) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want entitySet
	}{
		{"diag", got.diag, want.diag}, {"flux", got.flux, want.flux}, {"vert", got.vert, want.vert},
		{"vtan", got.vtan, want.vtan}, {"tend", got.tend, want.tend}, {"u", got.u, want.u},
	} {
		if c.got.k != c.want.k || !slices.Equal(c.got.ids, c.want.ids) {
			t.Fatalf("%s: %d ids split at %d, want %d split at %d (or the ids differ)",
				c.name, len(c.got.ids), c.got.k, len(c.want.ids), c.want.k)
		}
	}
}

// Re-invoking SetOwned must rebuild the interior/boundary split sets
// for the NEW ownership, identically to a fresh engine constructed with
// that ownership — the property the elastic runners lean on when they
// rebind a live engine to a repartitioned decomposition.
func TestSetOwnedRebuildsSplitSets(t *testing.T) {
	m := testMesh(t, 3)
	nlev := 3

	oA := ringOwned(m, func(c int32) bool { return c < int32(m.NCells)/2 })
	oB := ringOwned(m, func(c int32) bool { return c%3 == 0 })

	rebound := New(m, nlev, precision.DP).(*engine[float64])
	rebound.SetOwned(oA)
	setsA := rebound.sets
	rebound.SetOwned(oB)

	fresh := New(m, nlev, precision.DP).(*engine[float64])
	fresh.SetOwned(oB)
	sameSets(t, &rebound.sets, &fresh.sets)

	// And the split must actually have changed shape between A and B —
	// otherwise the rebind test is vacuous.
	if got := rebound.sets.tend; len(setsA.tend.ids) == len(got.ids) && setsA.tend.k == got.k {
		t.Fatal("ownership A and B produced identical split shapes; pick different predicates")
	}

	// Clearing ownership reinstalls the full mesh, hooks inert.
	calls := 0
	oB.Start, oB.Finish = func() { calls++ }, func() { calls++ }
	rebound.SetOwned(nil)
	sameSets(t, &rebound.sets, &New(m, nlev, precision.DP).(*engine[float64]).sets)
	rebound.hookStart()
	rebound.hookFinish()
	if calls != 0 {
		t.Fatalf("SetOwned(nil) left the old ownership's hooks live (%d calls)", calls)
	}
}

// An engine bound to empty sets owns nothing: a step computes nothing,
// leaves every prognostic array bitwise alone, and still runs the four
// halo rounds its peers are waiting in.
func TestEmptyOwnedSetsComputeNothing(t *testing.T) {
	e := New(testMesh(t, 2), 4, precision.DP)
	s := e.State()
	s.InitIdealized(CaseBaroclinicWave)
	before := s.Clone()
	starts, finishes := 0, 0
	e.SetOwned(&OwnedSets{Start: func() { starts++ }, Finish: func() { finishes++ }})
	e.Step(90)
	if starts != 4 || finishes != 4 {
		t.Errorf("Start ran %d times and Finish %d, want 4 each", starts, finishes)
	}
	for _, f := range []struct {
		name      string
		got, want []float64
	}{
		{"DryMass", s.DryMass, before.DryMass}, {"ThetaM", s.ThetaM, before.ThetaM},
		{"U", s.U, before.U}, {"W", s.W, before.W}, {"Phi", s.Phi, before.Phi},
	} {
		if !slices.Equal(f.got, f.want) {
			t.Errorf("%s changed on an engine that owns nothing", f.name)
		}
	}
}
