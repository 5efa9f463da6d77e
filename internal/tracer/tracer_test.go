package tracer

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gristgo/internal/mesh"
	"gristgo/internal/partition"
	"gristgo/internal/precision"
)

// setup builds a mesh, a uniform mass field and a solid-body mass flux.
func setup(level, nlev int) (*mesh.Mesh, []float64, []float64) {
	return setupOn(mesh.New(level), nlev)
}

// setupOn is setup on a given mesh.
func setupOn(m *mesh.Mesh, nlev int) (*mesh.Mesh, []float64, []float64) {
	dpi := make([]float64, m.NCells*nlev)
	for i := range dpi {
		dpi[i] = 1000.0 // Pa per layer
	}
	const u0 = 30.0
	flux := make([]float64, m.NEdges*nlev)
	for e := 0; e < m.NEdges; e++ {
		lat, _ := m.EdgePos[e].LatLon()
		east, _ := mesh.TangentBasis(m.EdgePos[e])
		un := east.Scale(u0 * math.Cos(lat)).Dot(m.EdgeNormal[e])
		for k := 0; k < nlev; k++ {
			flux[e*nlev+k] = 1000.0 * un
		}
	}
	return m, dpi, flux
}

// gaussianBlob initializes qv with a smooth blob.
func gaussianBlob(f *Field, lat0, lon0 float64) { blob(f, QV, lat0, lon0) }

// blob initializes a species with a smooth blob.
func blob(f *Field, sp Species, lat0, lon0 float64) {
	center := mesh.FromLatLon(lat0, lon0)
	for c := 0; c < f.M.NCells; c++ {
		d := mesh.ArcLength(f.M.CellPos[c], center)
		q := 0.01 * math.Exp(-d*d/(0.3*0.3))
		for k := 0; k < f.NLev; k++ {
			f.SetMixingRatio(sp, c, k, q)
		}
	}
}

func TestTracerMassConservationDP(t *testing.T) {
	m, dpi, flux := setup(3, 3)
	f := NewField(m, 3, dpi)
	gaussianBlob(f, 0.2, 1.0)
	tr := New(m, 3, precision.DP)

	mass0 := f.GlobalTracerMass(QV)
	for i := 0; i < 20; i++ {
		tr.Step(f, flux, 300)
	}
	mass := f.GlobalTracerMass(QV)
	if rel := math.Abs(mass-mass0) / mass0; rel > 1e-12 {
		t.Errorf("tracer mass drifted by %g (DP)", rel)
	}
}

func TestTracerMassConservationMixed(t *testing.T) {
	m, dpi, flux := setup(3, 3)
	f := NewField(m, 3, dpi)
	gaussianBlob(f, 0.2, 1.0)
	tr := New(m, 3, precision.Mixed)

	mass0 := f.GlobalTracerMass(QV)
	for i := 0; i < 20; i++ {
		tr.Step(f, flux, 300)
	}
	mass := f.GlobalTracerMass(QV)
	// float32 work arrays: conservation to single-precision rounding.
	if rel := math.Abs(mass-mass0) / mass0; rel > 1e-4 {
		t.Errorf("tracer mass drifted by %g (Mixed)", rel)
	}
}

func TestFluxLimiterMonotone(t *testing.T) {
	// FCT property: no new extrema. Start with a step function in [0, 0.01].
	m, dpi, flux := setup(3, 4)
	f := NewField(m, 4, dpi)
	for c := 0; c < m.NCells; c++ {
		q := 0.0
		if m.CellLat[c] > 0 {
			q = 0.01
		}
		for k := 0; k < 4; k++ {
			f.SetMixingRatio(QV, c, k, q)
		}
	}
	tr := New(m, 4, precision.DP)
	for i := 0; i < 30; i++ {
		tr.Step(f, flux, 300)
	}
	const eps = 1e-10
	for c := 0; c < m.NCells; c++ {
		for k := 0; k < 4; k++ {
			q := f.MixingRatio(QV, c, k)
			if q < -eps || q > 0.01+eps {
				t.Fatalf("limiter violated bounds: q=%v at cell %d", q, c)
			}
		}
	}
}

func TestFreeStreamPreservation(t *testing.T) {
	// A spatially constant mixing ratio must remain constant under any
	// divergent mass flux (consistency of tracer mass with dry mass).
	m := mesh.New(3)
	nlev := 2
	dpi := make([]float64, m.NCells*nlev)
	for i := range dpi {
		dpi[i] = 800
	}
	rng := rand.New(rand.NewSource(4))
	flux := make([]float64, m.NEdges*nlev)
	for i := range flux {
		flux[i] = 800 * (rng.Float64()*10 - 5) // divergent random flow
	}
	f := NewField(m, nlev, dpi)
	const q0 = 0.0042
	for c := 0; c < m.NCells; c++ {
		for k := 0; k < nlev; k++ {
			f.SetMixingRatio(QV, c, k, q0)
		}
	}
	tr := New(m, nlev, precision.DP)
	for i := 0; i < 5; i++ {
		tr.Step(f, flux, 60)
	}
	for c := 0; c < m.NCells; c++ {
		for k := 0; k < nlev; k++ {
			if d := math.Abs(f.MixingRatio(QV, c, k) - q0); d > 1e-12 {
				t.Fatalf("free-stream violated: q=%v at cell %d lev %d", f.MixingRatio(QV, c, k), c, k)
			}
		}
	}
}

func TestPositivityUnderSharpGradients(t *testing.T) {
	m, dpi, flux := setup(3, 2)
	f := NewField(m, 2, dpi)
	// Delta-like spike.
	f.SetMixingRatio(QC, 100, 0, 0.02)
	f.SetMixingRatio(QC, 100, 1, 0.02)
	tr := New(m, 2, precision.DP)
	for i := 0; i < 40; i++ {
		tr.Step(f, flux, 300)
	}
	for c := 0; c < m.NCells; c++ {
		for k := 0; k < 2; k++ {
			if q := f.MixingRatio(QC, c, k); q < 0 {
				t.Fatalf("negative mixing ratio %v at cell %d", q, c)
			}
		}
	}
}

func TestMixedMatchesDPWithinThreshold(t *testing.T) {
	m, dpi, flux := setup(3, 2)
	run := func(mode precision.Mode) []float64 {
		f := NewField(m, 2, dpi)
		gaussianBlob(f, 0.0, 2.0)
		tr := New(m, 2, mode)
		for i := 0; i < 25; i++ {
			tr.Step(f, flux, 300)
		}
		out := make([]float64, m.NCells)
		for c := 0; c < m.NCells; c++ {
			out[c] = f.MixingRatio(QV, c, 0)
		}
		return out
	}
	qd := run(precision.DP)
	qm := run(precision.Mixed)
	if dev := precision.RelL2(qm, qd); dev > precision.ErrorThreshold {
		t.Errorf("mixed tracer deviates %g from DP", dev)
	}
}

func TestSpeciesNames(t *testing.T) {
	want := []string{"qv", "qc", "qr", "qi", "qs", "qg"}
	for i, w := range want {
		if Species(i).String() != w {
			t.Errorf("species %d = %q, want %q", i, Species(i), w)
		}
	}
	if int(NumSpecies) != 6 {
		t.Errorf("NumSpecies = %d", NumSpecies)
	}
}

func TestLimiterRatioProperties(t *testing.T) {
	// Property: ratio in [0, 1]; equals 1 when demand <= 0 or capacity >=
	// demand.
	fn := func(capacity, demand float64) bool {
		if math.IsNaN(capacity) || math.IsNaN(demand) {
			return true
		}
		r := limiterRatio(capacity, demand)
		if r < 0 || r > 1 {
			return false
		}
		if demand <= 0 && r != 1 {
			return false
		}
		if demand > 0 && capacity >= demand && r != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestBlobAdvectsDownstream(t *testing.T) {
	// After advection with eastward flow, the blob's center of mass
	// longitude must increase.
	m, dpi, flux := setup(4, 1)
	f := NewField(m, 1, dpi)
	gaussianBlob(f, 0.0, 0.0)
	tr := New(m, 1, precision.DP)

	centerLon := func() float64 {
		var sx, sy, tot float64
		for c := 0; c < m.NCells; c++ {
			w := f.Q[QV][c] * m.CellArea[c]
			sx += w * math.Cos(m.CellLon[c])
			sy += w * math.Sin(m.CellLon[c])
			tot += w
		}
		return math.Atan2(sy/tot, sx/tot)
	}
	lon0 := centerLon()
	for i := 0; i < 50; i++ {
		tr.Step(f, flux, 600)
	}
	lon := centerLon()
	// 50*600 s at 30 m/s = 900 km ~ 0.14 rad at equator.
	if lon-lon0 < 0.05 {
		t.Errorf("blob did not advect east: lon moved %g rad", lon-lon0)
	}
}

// TestTransportHostParallelismMatchesSerial: the transport on 8 host
// workers reproduces the serial step bitwise (every loop is conflict-free
// per entity, so only scheduling changes) — over the whole mesh and for
// each rank of a 2-rank split, computing owned + two rings and committing
// the owned cells, in both precision modes.
func TestTransportHostParallelismMatchesSerial(t *testing.T) {
	const nlev = 8
	m := mesh.New(3).ReorderBFS()
	_, dpi, flux := setupOn(m, nlev)
	rng := rand.New(rand.NewSource(9))
	for i := range flux {
		flux[i] += 800 * (rng.Float64()*4 - 2) // divergent, so the mass moves too
	}
	dec := partition.MustDecompose(m, 2, 1)
	owned := map[string]*OwnedSets{"full mesh": nil}
	for p := range 2 {
		cells := append(slices.Clone(dec.Owned[p]), dec.HaloRings(m, p, 2)...)
		var edges []int32
		for _, c := range cells {
			edges = append(edges, m.CellEdges(c)...)
		}
		slices.Sort(edges)
		owned[fmt.Sprintf("rank %d of 2", p)] = &OwnedSets{Cells: cells, Commit: dec.Owned[p], Edges: slices.Compact(edges)}
	}
	for name, o := range owned {
		for _, mode := range []precision.Mode{precision.DP, precision.Mixed} {
			run := func(workers int) *Field {
				f := NewField(m, nlev, dpi)
				for sp := range f.Q {
					blob(f, Species(sp), 0.3*float64(sp)-0.6, float64(sp))
				}
				tr := New(m, nlev, mode)
				tr.SetOwned(o)
				tr.SetHostParallelism(workers)
				for range 4 {
					tr.Step(f, flux, 300)
				}
				return f
			}
			serial, parallel := run(1), run(8)
			for sp := range serial.Q {
				if i := firstDiff(serial.Q[sp], parallel.Q[sp]); i >= 0 {
					t.Fatalf("%s, %s: %s[%d]: %v != %v", name, mode, Species(sp), i, serial.Q[sp][i], parallel.Q[sp][i])
				}
			}
			if i := firstDiff(serial.Mass, parallel.Mass); i >= 0 {
				t.Fatalf("%s, %s: Mass[%d]: %v != %v", name, mode, i, serial.Mass[i], parallel.Mass[i])
			}
		}
	}
}

// firstDiff returns the first index where a and b differ in bits, or -1.
func firstDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestTransportStepAllocFree: after the first step, a serial transport
// step of all six species runs out of the work arrays newTransport sized,
// in both precision modes; every loop body is bound once, so handing it to
// mesh.ParallelFor allocates nothing. On 2 workers, what is left per step
// is the driver's fan-out: per loop its WaitGroup and one goroutine
// closure per chunk, 3 allocations over 2 + 5 x 6 loops.
func TestTransportStepAllocFree(t *testing.T) {
	m, dpi, flux := setup(3, 8)
	for _, row := range []struct {
		workers int
		budget  float64
	}{{1, 0}, {2, 3 * (2 + 5*float64(NumSpecies))}} {
		workers, budget := row.workers, row.budget
		for _, mode := range []precision.Mode{precision.DP, precision.Mixed} {
			f := NewField(m, 8, dpi)
			gaussianBlob(f, 0.2, 1.0)
			tr := New(m, 8, mode)
			tr.SetHostParallelism(workers)
			tr.Step(f, flux, 300)
			allocs := testing.AllocsPerRun(5, func() { tr.Step(f, flux, 300) })
			t.Logf("%s transport Step on %d workers allocates %.0f times per call", mode, workers, allocs)
			if allocs > budget {
				t.Errorf("%s transport Step on %d workers allocates %.0f times per call; the budget is %.0f", mode, workers, allocs, budget)
			}
		}
	}
}
