package dycore

import (
	"math"
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

// windowHooks binds o's Start and Finish to a stand-in exchange over the
// five fields a real round ships: Start saves every entry the rank does
// not own and, when poison is set, overwrites them with NaN; Finish
// restores them. It returns the Start count.
func windowHooks(s *State, o *OwnedSets, poison bool) *int {
	ownedCell := make([]bool, s.M.NCells)
	for _, c := range o.TendCells {
		ownedCell[c] = true
	}
	ownedEdge := make([]bool, s.M.NEdges)
	for _, ed := range o.UEdges {
		ownedEdge[ed] = true
	}
	nlev := s.NLev
	fields := []struct {
		data  []float64
		width int
		owned []bool
	}{
		{s.DryMass, nlev, ownedCell}, {s.ThetaM, nlev, ownedCell},
		{s.W, nlev + 1, ownedCell}, {s.Phi, nlev + 1, ownedCell}, {s.U, nlev, ownedEdge},
	}
	saved := make([][]float64, len(fields))
	starts := 0
	o.Start = func() {
		starts++
		for i, f := range fields {
			saved[i] = append(saved[i][:0], f.data...)
			for id, own := range f.owned {
				if poison && !own {
					for j := id * f.width; j < (id+1)*f.width; j++ {
						f.data[j] = math.NaN()
					}
				}
			}
		}
	}
	o.Finish = func() {
		for i, f := range fields {
			for id, own := range f.owned {
				if !own {
					copy(f.data[id*f.width:(id+1)*f.width], saved[i][id*f.width:])
				}
			}
		}
	}
	return &starts
}

// Nothing between Start and Finish may read a value the exchange is about
// to replace: with every entry a rank does not own turned to NaN for the
// whole window, each rank of a 2-rank split ends three steps bitwise where
// the unpoisoned run does, NaN-free. The window covers every kernel of the
// interior pass and, in the last window of a step, the mass-flux
// accumulation and the implicit vertical solve.
func TestPoisonedOverlapWindow(t *testing.T) {
	m := testMesh(t, 3)
	const nlev, steps = 8, 3
	for _, mode := range []precision.Mode{precision.DP, precision.Mixed} {
		for rank := int32(0); rank < 2; rank++ {
			run := func(poison bool) *State {
				e := New(m, nlev, mode)
				s := e.State()
				s.InitIdealized(CaseBaroclinicWave)
				s.AddThermalBubble(0.4, 1.0, 0.3, 4)
				o := halfOwned(m, rank)
				starts := windowHooks(s, o, poison)
				e.SetOwned(o)
				for i := 0; i < steps; i++ {
					e.Step(90)
				}
				if *starts != 4*steps {
					t.Fatalf("%s rank %d: %d windows opened, want %d", mode, rank, *starts, 4*steps)
				}
				return s
			}
			clean, poisoned := run(false), run(true)
			for _, f := range []struct {
				name      string
				got, want []float64
			}{
				{"DryMass", poisoned.DryMass, clean.DryMass}, {"ThetaM", poisoned.ThetaM, clean.ThetaM},
				{"U", poisoned.U, clean.U}, {"W", poisoned.W, clean.W}, {"Phi", poisoned.Phi, clean.Phi},
			} {
				for i, v := range f.got {
					if math.IsNaN(v) || math.Float64bits(v) != math.Float64bits(f.want[i]) {
						t.Fatalf("%s rank %d: %s[%d] = %v after a poisoned window, %v without",
							mode, rank, f.name, i, v, f.want[i])
					}
				}
			}
		}
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
