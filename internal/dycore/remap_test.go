package dycore

import (
	"math"
	"math/rand"
	"testing"

	"gristgo/internal/precision"
	"gristgo/internal/tracer"
)

// deformColumns perturbs layer thicknesses non-uniformly (as a long
// Lagrangian integration would) while keeping intensive values coherent.
func deformColumns(s *State, tr *tracer.Field, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	nlev := s.NLev
	for c := 0; c < s.M.NCells; c++ {
		base := c * nlev
		for k := 0; k < nlev; k++ {
			theta := s.ThetaM[base+k] / s.DryMass[base+k]
			var q [tracer.NumSpecies]float64
			for t := range q {
				q[t] = tr.Q[t][base+k] / tr.Mass[base+k]
			}
			f := 0.6 + 0.8*rng.Float64()
			s.DryMass[base+k] *= f
			s.ThetaM[base+k] = s.DryMass[base+k] * theta
			tr.Mass[base+k] = s.DryMass[base+k]
			for t := range q {
				tr.Q[t][base+k] = q[t] * tr.Mass[base+k]
			}
		}
	}
}

func TestVerticalRemapConservation(t *testing.T) {
	m := testMesh(t, 2)
	nlev := 10
	s := NewState(m, nlev)
	s.IsothermalRest(290)
	tr := tracer.NewField(m, nlev, s.DryMass)
	for c := 0; c < m.NCells; c++ {
		for k := 0; k < nlev; k++ {
			tr.SetMixingRatio(tracer.QV, c, k, 0.001*float64(k+1))
			tr.SetMixingRatio(tracer.QC, c, k, 1e-5*float64(c%7))
		}
	}
	deformColumns(s, tr, 5)

	mass0 := s.GlobalDryMass()
	qv0 := tr.GlobalTracerMass(tracer.QV)
	qc0 := tr.GlobalTracerMass(tracer.QC)
	var theta0 float64
	for i := range s.ThetaM {
		theta0 += s.ThetaM[i]
	}

	VerticalRemap(s, tr)

	if rel := math.Abs(s.GlobalDryMass()-mass0) / mass0; rel > 1e-12 {
		t.Errorf("dry mass changed by %g", rel)
	}
	if rel := math.Abs(tr.GlobalTracerMass(tracer.QV)-qv0) / qv0; rel > 1e-12 {
		t.Errorf("qv mass changed by %g", rel)
	}
	if qc0 > 0 {
		if rel := math.Abs(tr.GlobalTracerMass(tracer.QC)-qc0) / qc0; rel > 1e-12 {
			t.Errorf("qc mass changed by %g", rel)
		}
	}
	var theta1 float64
	for i := range s.ThetaM {
		theta1 += s.ThetaM[i]
	}
	if rel := math.Abs(theta1-theta0) / theta0; rel > 1e-12 {
		t.Errorf("mass-weighted theta changed by %g", rel)
	}

	// Layers are uniform afterwards.
	for c := 0; c < m.NCells; c++ {
		base := c * nlev
		for k := 1; k < nlev; k++ {
			if d := math.Abs(s.DryMass[base+k] - s.DryMass[base]); d > 1e-9 {
				t.Fatalf("cell %d: layers not uniform after remap", c)
			}
		}
	}
}

func TestVerticalRemapIdempotentOnUniform(t *testing.T) {
	m := testMesh(t, 1)
	nlev := 6
	s := NewState(m, nlev)
	s.IsothermalRest(280)
	tr := tracer.NewField(m, nlev, s.DryMass)
	before := append([]float64(nil), s.ThetaM...)
	VerticalRemap(s, tr)
	for i := range before {
		if math.Abs(s.ThetaM[i]-before[i]) > 1e-9*(1+math.Abs(before[i])) {
			t.Fatalf("remap changed a uniform column at %d: %g vs %g", i, s.ThetaM[i], before[i])
		}
	}
}

func TestVerticalRemapPreservesMonotoneProfiles(t *testing.T) {
	// First-order remap must not create new extrema in theta.
	m := testMesh(t, 1)
	nlev := 12
	s := NewState(m, nlev)
	s.IsothermalRest(300) // theta decreasing downward
	tr := tracer.NewField(m, nlev, s.DryMass)
	deformColumns(s, tr, 9)
	// Record column extrema before.
	for c := 0; c < m.NCells; c++ {
		base := c * nlev
		lo, hi := math.Inf(1), math.Inf(-1)
		for k := 0; k < nlev; k++ {
			th := s.ThetaM[base+k] / s.DryMass[base+k]
			lo = math.Min(lo, th)
			hi = math.Max(hi, th)
		}
		VerticalRemapColumnCheck := func() {
			for k := 0; k < nlev; k++ {
				th := s.ThetaM[base+k] / s.DryMass[base+k]
				if th < lo-1e-9 || th > hi+1e-9 {
					t.Fatalf("cell %d: remap created extremum %g outside [%g,%g]", c, th, lo, hi)
				}
			}
		}
		_ = VerticalRemapColumnCheck
		if c == 0 {
			VerticalRemap(s, tr)
		}
		VerticalRemapColumnCheck()
	}
}

func TestRemapThenStepStable(t *testing.T) {
	m := testMesh(t, 2)
	eng := New(m, 8, precision.DP)
	s := eng.State()
	s.InitIdealized(CaseTropicalCyclone)
	tr := tracer.NewField(m, 8, s.DryMass)
	for i := 0; i < 10; i++ {
		eng.Step(90)
		if i%5 == 4 {
			VerticalRemap(s, tr)
		}
	}
	if w := s.MaxWind(); w > 150 || math.IsNaN(w) {
		t.Errorf("unstable after remap cycling: max|u| = %g", w)
	}
}

func TestRemapIntoOverlapLogic(t *testing.T) {
	// Two source layers [0,2],[2,4] with intensive values 1 and 3,
	// remapped to [0,1],[1,3],[3,4].
	srcEdges := []float64{0, 2, 4}
	dstEdges := []float64{0, 1, 3, 4}
	src := []float64{2 * 1, 2 * 3} // mass-weighted
	srcMass := []float64{2, 2}
	dst := make([]float64, 3)
	// remapInto expects len(dst)==len(src); use the general helper
	// directly with mismatched lengths via a local copy of the logic.
	n := len(dst)
	for k := range dst {
		dst[k] = 0
	}
	for di := 0; di < n; di++ {
		lo, hi := dstEdges[di], dstEdges[di+1]
		for j := 0; j < len(src); j++ {
			overlap := math.Min(hi, srcEdges[j+1]) - math.Max(lo, srcEdges[j])
			if overlap <= 0 {
				continue
			}
			dst[di] += src[j] / srcMass[j] * overlap
		}
	}
	want := []float64{1, 1*1 + 1*3, 3}
	for i := range want {
		if math.Abs(dst[i]-want[i]) > 1e-12 {
			t.Errorf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestRemapperRunAllocFree(t *testing.T) {
	m := testMesh(t, 1)
	nlev := 8
	s := NewState(m, nlev)
	s.IsothermalRest(290)
	tr := tracer.NewField(m, nlev, s.DryMass)
	r := NewRemapper(nlev)
	r.Run(s, tr) // warm up
	allocs := testing.AllocsPerRun(10, func() {
		r.Run(s, tr)
	})
	if allocs > 0 {
		t.Errorf("Remapper.Run allocates %.1f times per call; want 0", allocs)
	}
}

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

// TestStepAllocBudget keeps the benchmark's dycore.step_allocs rung under
// tier-1, in both precision modes: what is left per serial step is one
// closure per loop handed to mesh.ParallelFor, 43 of them, so a kernel that
// starts allocating — in the closure or in the kernel Step reaches —
// fails here. Under -race the budget is the 55 of before the loops were
// flattened: the race detector drops sync.Pool items at random, so the
// implicit solver's scratch (9 allocations) is rebuilt on some steps.
func TestStepAllocBudget(t *testing.T) {
	budget := 43.0
	if raceEnabled {
		budget = 55
	}
	for _, mode := range []precision.Mode{precision.DP, precision.Mixed} {
		eng := New(testMesh(t, 2), 6, mode)
		eng.State().InitIdealized(CaseBaroclinicWave)
		eng.Step(90) // warm up: the implicit scratch pool fills on first use
		allocs := testing.AllocsPerRun(10, func() { eng.Step(90) })
		t.Logf("%s Step allocates %.0f times per call", mode, allocs)
		if allocs > budget {
			t.Errorf("%s Step allocates %.0f times per call; the budget is %.0f", mode, allocs, budget)
		}
	}
}
