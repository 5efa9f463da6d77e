package dycore

import (
	"fmt"
	"math"
	"testing"

	"gristgo/internal/mesh"
	"gristgo/internal/precision"
)

func testMesh(t testing.TB, level int) *mesh.Mesh {
	t.Helper()
	return mesh.New(level).ReorderBFS()
}

func maxAbs(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

func TestIsothermalRestIsSteady(t *testing.T) {
	m := testMesh(t, 3)
	eng := New(m, 10, precision.DP)
	s := eng.State()
	s.IsothermalRest(280)

	ps0 := s.SurfacePressure()
	for i := 0; i < 10; i++ {
		eng.Step(60)
	}
	ps := s.SurfacePressure()
	if dev := precision.RelL2(ps, ps0); dev > 1e-6 {
		t.Errorf("surface pressure drifted: relL2 = %g", dev)
	}
	if u := maxAbs(s.U); u > 1e-4 {
		t.Errorf("spurious winds developed: max|u| = %g m/s", u)
	}
	if w := maxAbs(s.W); w > 1e-4 {
		t.Errorf("spurious vertical motion: max|w| = %g m/s", w)
	}
}

func TestDryMassConservation(t *testing.T) {
	m := testMesh(t, 3)
	eng := New(m, 8, precision.DP)
	s := eng.State()
	s.IsothermalRest(300)
	s.AddThermalBubble(0.3, 1.0, 0.2, 5)
	s.AddSolidBodyWind(20)

	mass0 := s.GlobalDryMass()
	for i := 0; i < 20; i++ {
		eng.Step(60)
	}
	mass := s.GlobalDryMass()
	if rel := math.Abs(mass-mass0) / mass0; rel > 1e-12 {
		t.Errorf("dry mass drifted by %g (relative)", rel)
	}
}

func TestBubbleDrivesMotionButStaysStable(t *testing.T) {
	m := testMesh(t, 3)
	eng := New(m, 10, precision.DP)
	s := eng.State()
	s.IsothermalRest(300)
	s.AddThermalBubble(0.0, 0.0, 0.15, 8)

	for i := 0; i < 60; i++ {
		eng.Step(60)
	}
	u := maxAbs(s.U)
	if u < 1e-3 {
		t.Errorf("bubble produced no motion: max|u| = %g", u)
	}
	if u > 150 {
		t.Errorf("run unstable: max|u| = %g", u)
	}
	for i, d := range s.DryMass {
		if d <= 0 || math.IsNaN(d) {
			t.Fatalf("non-positive dry mass at %d: %v", i, d)
		}
	}
}

func TestImplicitSolverAllowsAcousticCFLViolation(t *testing.T) {
	// With ~10 layers over 40 km, a vertically explicit scheme would
	// need dt < dz/c ~ 4000/340 ~ 12 s. The implicit solve must be
	// stable far beyond that.
	m := testMesh(t, 2)
	eng := New(m, 10, precision.DP)
	s := eng.State()
	s.IsothermalRest(280)
	s.AddThermalBubble(0.5, 0.5, 0.2, 10)
	for i := 0; i < 20; i++ {
		eng.Step(120) // 10x the vertical acoustic CFL limit
	}
	if w := maxAbs(s.W); w > 100 || math.IsNaN(w) {
		t.Errorf("implicit vertical solve unstable: max|w| = %g", w)
	}
}

func TestMixedPrecisionWithinThreshold(t *testing.T) {
	// §3.4.1: ps and vor of the mixed run must stay within 5% relative
	// L2 of the double-precision gold standard.
	m := testMesh(t, 3)

	run := func(mode precision.Mode) ([]float64, []float64) {
		eng := New(m, 8, mode)
		s := eng.State()
		s.IsothermalRest(300)
		s.AddThermalBubble(0.4, 2.0, 0.25, 6)
		s.AddSolidBodyWind(25)
		for i := 0; i < 30; i++ {
			eng.Step(60)
		}
		return s.SurfacePressure(), eng.VorticityAtLevel(4)
	}
	psDP, vorDP := run(precision.DP)
	psMX, vorMX := run(precision.Mixed)

	dev := precision.Measure(psMX, psDP, vorMX, vorDP)
	if !dev.Acceptable() {
		t.Errorf("mixed precision deviation too large: ps=%.4f vor=%.4f", dev.Ps, dev.Vor)
	}
	t.Logf("mixed-precision deviation: ps=%.2e vor=%.2e (threshold %.2f)", dev.Ps, dev.Vor, precision.ErrorThreshold)
}

func TestMassFluxAccumulatorIsDP(t *testing.T) {
	m := testMesh(t, 2)
	eng := New(m, 6, precision.Mixed)
	s := eng.State()
	s.IsothermalRest(290)
	s.AddSolidBodyWind(15)

	eng.Step(60)
	eng.Step(60)
	if eng.AccumSteps() != 2 {
		t.Fatalf("AccumSteps = %d", eng.AccumSteps())
	}
	acc := eng.MassFluxAccum()
	if maxAbs(acc) == 0 {
		t.Fatal("mass flux accumulator empty after steps with wind")
	}
	eng.ResetMassFluxAccum()
	if eng.AccumSteps() != 0 || maxAbs(eng.MassFluxAccum()) != 0 {
		t.Fatal("reset did not clear accumulator")
	}
}

func TestApplyHeatingWarmsColumn(t *testing.T) {
	m := testMesh(t, 2)
	eng := New(m, 6, precision.DP)
	s := eng.State()
	s.IsothermalRest(280)

	q1 := make([]float64, m.NCells*6)
	target := 100 // one column
	for k := 0; k < 6; k++ {
		q1[target*6+k] = 1.0 / 3600 // 1 K/h
	}
	before := s.Theta(target, 3)
	eng.ApplyHeating(q1, 3600)
	after := s.Theta(target, 3)
	// 1 K of temperature is slightly more than 1 K of theta at p<p0.
	if after-before < 0.9 {
		t.Errorf("heating raised theta by %g, want ~>=1", after-before)
	}
	// Other columns untouched.
	if d := s.Theta(5, 3) - before; math.Abs(d) > 1e-12 {
		t.Errorf("heating leaked to other columns: %g", d)
	}
}

func TestHydrostaticRebalanceMatchesIsothermal(t *testing.T) {
	m := testMesh(t, 2)
	s := NewState(m, 8)
	s.IsothermalRest(280)
	phi0 := append([]float64(nil), s.Phi...)
	HydrostaticRebalance(s)
	for i := range phi0 {
		if math.Abs(s.Phi[i]-phi0[i]) > 1e-6*(1+math.Abs(phi0[i])) {
			t.Fatalf("rebalance changed phi[%d]: %g vs %g", i, s.Phi[i], phi0[i])
		}
	}
}

func TestVorticityMatchesMeshOperator(t *testing.T) {
	m := testMesh(t, 3)
	eng := New(m, 4, precision.DP)
	s := eng.State()
	s.IsothermalRest(280)
	s.AddSolidBodyWind(30)
	vor := eng.VorticityAtLevel(2)
	// Solid body rotation: zeta = 2*u0/R*sin(lat).
	var worst float64
	for v := 0; v < m.NVerts; v++ {
		lat, _ := m.VertPos[v].LatLon()
		want := 2 * 30.0 / m.Radius * math.Sin(lat)
		if d := math.Abs(vor[v] - want); d > worst {
			worst = d
		}
	}
	if scale := 2 * 30.0 / m.Radius; worst > 0.1*scale {
		t.Errorf("vorticity error %g (scale %g)", worst, scale)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := testMesh(t, 1)
	s := NewState(m, 4)
	s.IsothermalRest(280)
	c := s.Clone()
	c.DryMass[0] += 5
	if s.DryMass[0] == c.DryMass[0] {
		t.Fatal("clone aliases DryMass")
	}
}

// Region is the one spelling of the serialized field order: per cell
// DryMass, ThetaM, W, Phi, then per edge U, RegionLen words in all, each
// run aliasing the state.
func TestRegionVisitsCanonicalOrder(t *testing.T) {
	const nlev = 3
	s := NewState(testMesh(t, 1), nlev)
	for i := range s.DryMass {
		s.DryMass[i], s.ThetaM[i] = 1e6+float64(i), 2e6+float64(i)
	}
	for i := range s.W {
		s.W[i], s.Phi[i] = 3e6+float64(i), 4e6+float64(i)
	}
	for i := range s.U {
		s.U[i] = 5e6 + float64(i)
	}
	cells, edges := []int32{7, 2}, []int32{5}
	var got []float64
	s.Region(cells, edges, func(run []float64) { got = append(got, run...) })
	var want []float64
	for _, c := range cells {
		for _, f := range []struct {
			base float64
			n    int
		}{{1e6, nlev}, {2e6, nlev}, {3e6, nlev + 1}, {4e6, nlev + 1}} {
			for k := 0; k < f.n; k++ {
				want = append(want, f.base+float64(int(c)*f.n+k))
			}
		}
	}
	for k := 0; k < nlev; k++ {
		want = append(want, 5e6+float64(5*nlev+k))
	}
	if len(got) != RegionLen(nlev, len(cells), len(edges)) || len(got) != len(want) {
		t.Fatalf("visited %d words, RegionLen says %d, want %d", len(got), RegionLen(nlev, len(cells), len(edges)), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d = %v, want %v", i, got[i], want[i])
		}
	}
	s.Region(cells[:1], nil, func(run []float64) { run[0] = -1 })
	if s.DryMass[7*nlev] != -1 || s.Phi[7*(nlev+1)] != -1 {
		t.Fatal("runs do not alias the state")
	}
}

func TestVortexInjectsCyclonicCirculation(t *testing.T) {
	m := testMesh(t, 4)
	s := NewState(m, 6)
	s.IsothermalRest(300)
	lat0, lon0 := 0.35, 2.1
	s.AddVortex(lat0, lon0, 30, 0.05)
	// Vorticity near the center should be strongly positive (NH cyclone).
	eng := NewFromState(s, precision.DP)
	vor := eng.VorticityAtLevel(5)
	center := mesh.FromLatLon(lat0, lon0)
	var near float64
	n := 0
	for v := 0; v < m.NVerts; v++ {
		if mesh.ArcLength(m.VertPos[v], center) < 0.05 {
			near += vor[v]
			n++
		}
	}
	if n == 0 || near/float64(n) <= 0 {
		t.Errorf("no cyclonic vorticity at vortex center: mean=%g over %d verts", near/float64(n), n)
	}
}

// TestHostParallelismMatchesSerial: the OpenMP-analog shared-memory
// execution must reproduce the serial results exactly (loops are
// conflict-free per entity, so only scheduling changes) — over the whole
// mesh and inside each rank of a 2-rank split, whose halo is never
// refreshed (no hooks), so everything the rank does not own stays at its
// initial value in both runs.
func TestHostParallelismMatchesSerial(t *testing.T) {
	m := testMesh(t, 3)
	owned := map[string]*OwnedSets{"full mesh": nil, "rank 0 of 2": halfOwned(m, 0), "rank 1 of 2": halfOwned(m, 1)}
	for name, o := range owned {
		for _, mode := range []precision.Mode{precision.DP, precision.Mixed} {
			run := func(workers int) *State {
				eng := New(m, 8, mode)
				eng.SetOwned(o)
				eng.SetHostParallelism(workers)
				s := eng.State()
				s.InitIdealized(CaseTropicalCyclone)
				for i := 0; i < 5; i++ {
					eng.Step(90)
				}
				return s
			}
			serial := run(1)
			parallel := run(8)
			cmp := func(field string, a, b []float64) {
				t.Helper()
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s, %s: %s[%d]: %v != %v", name, mode, field, i, a[i], b[i])
					}
				}
			}
			cmp("DryMass", serial.DryMass, parallel.DryMass)
			cmp("ThetaM", serial.ThetaM, parallel.ThetaM)
			cmp("U", serial.U, parallel.U)
			cmp("W", serial.W, parallel.W)
			cmp("Phi", serial.Phi, parallel.Phi)
		}
	}
}

// TestSpongeLayerDampsTopWinds: winds confined to the top layer decay
// much faster than mid-level winds.
func TestSpongeLayerDampsTopWinds(t *testing.T) {
	m := testMesh(t, 2)
	eng := New(m, 8, precision.DP)
	s := eng.State()
	s.IsothermalRest(280)
	// Same wind at the top layer (k=0) and a mid layer (k=4).
	for e := 0; e < m.NEdges; e++ {
		lat, _ := m.EdgePos[e].LatLon()
		east, _ := mesh.TangentBasis(m.EdgePos[e])
		un := east.Scale(10 * math.Cos(lat)).Dot(m.EdgeNormal[e])
		s.U[e*8+0] = un
		s.U[e*8+4] = un
	}
	amp := func(k int) float64 {
		var a float64
		for e := 0; e < m.NEdges; e++ {
			a += s.U[e*8+k] * s.U[e*8+k]
		}
		return a
	}
	top0, mid0 := amp(0), amp(4)
	for i := 0; i < 10; i++ {
		eng.Step(120)
	}
	topDecay := amp(0) / top0
	midDecay := amp(4) / mid0
	if topDecay > 0.5*midDecay {
		t.Errorf("sponge ineffective: top retains %.3f, mid %.3f", topDecay, midDecay)
	}
}

func TestSpongeRateProfile(t *testing.T) {
	nlev := 10
	if spongeRate(0, nlev) <= spongeRate(1, nlev) {
		t.Error("sponge not strongest at the top")
	}
	for k := 2; k < nlev; k++ {
		if spongeRate(k, nlev) != 0 {
			t.Errorf("sponge leaks into layer %d", k)
		}
	}
}

// The kernels store each per-cell quantity once; the spellings they
// replaced recomputed it per reader. Those spellings live on here as the
// references the stored arrays must equal bit for bit.

// refDivAt is the per-reader divergence: the whole cell's edge sum,
// recomputed at every (cell, level) a momentum edge asked for.
func refDivAt(s *State, c int32, k int) float64 {
	m := s.M
	var acc float64
	for kk := m.CellOff[c]; kk < m.CellOff[c+1]; kk++ {
		ed := m.CellEdge[kk]
		acc += float64(m.CellEdgeSign[kk]) * s.U[int(ed)*s.NLev+k] * m.DvEdge[ed]
	}
	return acc / m.CellArea[c]
}

// refPhm is the per-edge-end geopotential term of the pressure gradient:
// mid-layer geopotential minus refPhi at the dry mid-layer pressure.
func refPhm(s *State, c int32, k int) float64 {
	nlev := s.NLev
	pIface := PTop
	for j := 0; j < k; j++ {
		pIface += s.DryMass[int(c)*nlev+j]
	}
	pmid := pIface + 0.5*s.DryMass[int(c)*nlev+k]
	return 0.5*(s.Phi[int(c)*(nlev+1)+k]+s.Phi[int(c)*(nlev+1)+k+1]) - refPhi(pmid)
}

// refVtan is the level-outer TRiSK reconstruction of one (edge, level).
func refVtan[T precision.Real](s *State, ed int32, k int) T {
	m := s.M
	var acc T
	for j := m.TrskOff[ed]; j < m.TrskOff[ed+1]; j++ {
		acc += T(m.TrskWeight[j]) * T(s.U[int(m.TrskEdge[j])*s.NLev+k])
	}
	return acc
}

// refZeta is the level-outer vorticity of one (vertex, level): the
// three-edge sum over strided winds.
func refZeta[T precision.Real](s *State, v int32, k int) T {
	m := s.M
	var acc T
	for j := 0; j < 3; j++ {
		ed := m.VertEdge[v][j]
		acc += T(m.VertEdgeSign[v][j]) * T(s.U[int(ed)*s.NLev+k]) * T(m.DcEdge[ed])
	}
	return acc * T(1.0/m.VertArea[v])
}

// refKE is the edge-outer kinetic energy of one cell's column, each edge's
// term added to the accumulator in memory.
func refKE[T precision.Real](s *State, c int32) []T {
	m, nlev := s.M, s.NLev
	inv := T(1.0 / m.CellArea[c])
	ke := make([]T, nlev)
	for kk := m.CellOff[c]; kk < m.CellOff[c+1]; kk++ {
		ed := m.CellEdge[kk]
		w := T(0.25 * m.DvEdge[ed] * m.DcEdge[ed])
		for k, u64 := range s.U[int(ed)*nlev : int(ed)*nlev+nlev] {
			u := T(u64)
			ke[k] += w * u * u * inv
		}
	}
	return ke
}

// refContinuity is the edge-outer mass and theta flux divergence of one
// cell's column from the engine's edge fluxes, accumulated in memory.
func refContinuity[T precision.Real](e *engine[T], c int32) (dMass, dTheta []float64) {
	m, nlev := e.s.M, e.s.NLev
	inv := 1.0 / m.CellArea[c]
	dMass, dTheta = make([]float64, nlev), make([]float64, nlev)
	for kk := m.CellOff[c]; kk < m.CellOff[c+1]; kk++ {
		ed := m.CellEdge[kk]
		sign := float64(m.CellEdgeSign[kk]) * m.DvEdge[ed] * inv
		for k := 0; k < nlev; k++ {
			f := float64(e.flux[int(ed)*nlev+k])
			dMass[k] -= sign * f
			dTheta[k] -= sign * f * float64(e.thetaEdge[int(ed)*nlev+k])
		}
	}
	return dMass, dTheta
}

// sameBits compares two values bit for bit, so -0 differs from +0.
func sameBits[T precision.Real](a, b T) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// checkKernelOracles compares the engine's div, phm (as the per-edge
// difference momentum takes) and vtan with the reference spellings
// evaluated on truth, over the given cells and momentum edges; and its
// zeta, ke, dMass and dTheta, bit for bit, with the edge-outer spellings
// over its vorticity, diagnostic and tendency sets.
func checkKernelOracles[T precision.Real](t *testing.T, label string, e *engine[T], truth *State, cells, edges []int32) {
	t.Helper()
	m, nlev := truth.M, truth.NLev
	for _, v := range e.sets.vert.ids {
		for k := 0; k < nlev; k++ {
			if got, want := e.zeta[int(v)*nlev+k], refZeta[T](truth, v, k); !sameBits(got, want) {
				t.Fatalf("%s: zeta(vertex %d, level %d) = %v, level-outer sum gives %v", label, v, k, got, want)
			}
		}
	}
	for _, c := range e.sets.diag.ids {
		for k, want := range refKE[T](truth, c) {
			if got := e.ke[int(c)*nlev+k]; !sameBits(got, want) {
				t.Fatalf("%s: ke(cell %d, level %d) = %v, edge-outer sum gives %v", label, c, k, got, want)
			}
		}
	}
	for _, c := range e.sets.tend.ids {
		wantMass, wantTheta := refContinuity(e, c)
		for k := range wantMass {
			if got := e.dMass[int(c)*nlev+k]; !sameBits(got, wantMass[k]) {
				t.Fatalf("%s: dMass(cell %d, level %d) = %v, edge-outer sum gives %v", label, c, k, got, wantMass[k])
			}
			if got := e.dTheta[int(c)*nlev+k]; !sameBits(got, wantTheta[k]) {
				t.Fatalf("%s: dTheta(cell %d, level %d) = %v, edge-outer sum gives %v", label, c, k, got, wantTheta[k])
			}
		}
	}
	for _, c := range cells {
		for k := 0; k < nlev; k++ {
			if got, want := e.div[int(c)*nlev+k], refDivAt(truth, c, k); got != want {
				t.Fatalf("%s: div(cell %d, level %d) = %v, per-edge divAt gives %v", label, c, k, got, want)
			}
		}
	}
	for _, ed := range edges {
		c0, c1 := m.EdgeCell[ed][0], m.EdgeCell[ed][1]
		for k := 0; k < nlev; k++ {
			got := e.phm[int(c1)*nlev+k] - e.phm[int(c0)*nlev+k]
			if want := refPhm(truth, c1, k) - refPhm(truth, c0, k); got != want {
				t.Fatalf("%s: phm difference (edge %d, level %d) = %v, per-edge refPhi gives %v", label, ed, k, got, want)
			}
			if got, want := e.vtan[int(ed)*nlev+k], refVtan[T](truth, ed, k); got != want {
				t.Fatalf("%s: vtan(edge %d, level %d) = %v, level-outer TRiSK gives %v", label, ed, k, got, want)
			}
		}
	}
}

// halfOwned is rank's share of a 2-rank split into two contiguous halves
// of the BFS cell order.
func halfOwned(m *mesh.Mesh, rank int32) *OwnedSets {
	return ringOwned(m, func(c int32) bool { return c*2/int32(m.NCells) == rank })
}

// testKernelOracles runs the references against the serial engine, then
// against each rank of a 2-rank split whose halo arrives between the
// interior and the boundary pass: until then everything the rank does
// not own holds a stale value, so a per-cell array filled under the wrong
// taint class would have read it.
func testKernelOracles[T precision.Real](t *testing.T, mode precision.Mode) {
	m := testMesh(t, 3)
	const nlev = 8
	serial := New(m, nlev, mode).(*engine[T])
	truth := serial.s
	truth.InitIdealized(CaseBaroclinicWave)
	truth.AddThermalBubble(0.4, 1.0, 0.3, 4)
	for i := 0; i < 3; i++ {
		serial.Step(90)
	}
	serial.computeTendencies(regionAll)
	checkKernelOracles(t, "serial", serial, truth, mesh.IdentityIDs(m.NCells), mesh.IdentityIDs(m.NEdges))

	for rank := int32(0); rank < 2; rank++ {
		o := halfOwned(m, rank)
		local := truth.Clone()
		e := NewFromState(local, mode).(*engine[T])
		e.SetOwned(o)
		ownedCell := make([]bool, m.NCells)
		for _, c := range o.TendCells {
			ownedCell[c] = true
		}
		ownedEdge := make([]bool, m.NEdges)
		for _, ed := range o.UEdges {
			ownedEdge[ed] = true
		}
		for c := 0; c < m.NCells; c++ {
			if !ownedCell[c] {
				for k := 0; k < nlev; k++ {
					local.DryMass[c*nlev+k] *= 1.5
					local.ThetaM[c*nlev+k] *= 0.5
				}
				for k := 0; k <= nlev; k++ {
					local.Phi[c*(nlev+1)+k] *= 1.25
				}
			}
		}
		for ed := 0; ed < m.NEdges; ed++ {
			if !ownedEdge[ed] {
				for k := 0; k < nlev; k++ {
					local.U[ed*nlev+k] += 7
				}
			}
		}
		e.computeTendencies(regionInterior)
		copy(local.DryMass, truth.DryMass)
		copy(local.ThetaM, truth.ThetaM)
		copy(local.Phi, truth.Phi)
		copy(local.U, truth.U)
		e.computeTendencies(regionBoundary)
		diag, u := e.sets.diag, e.sets.u
		if diag.k == 0 || diag.k == len(diag.ids) || u.k == 0 || u.k == len(u.ids) {
			t.Fatalf("rank %d: split has an empty class (diag %d of %d interior, u %d of %d); pick another ownership",
				rank, diag.k, len(diag.ids), u.k, len(u.ids))
		}
		checkKernelOracles(t, fmt.Sprintf("rank %d", rank), e, truth, diag.ids, u.ids)
	}
}

func TestKernelsMatchPerReaderSpellings(t *testing.T) {
	t.Run("DP", func(t *testing.T) { testKernelOracles[float64](t, precision.DP) })
	t.Run("MIX", func(t *testing.T) { testKernelOracles[float32](t, precision.Mixed) })
}

// ulpsApart is the distance between two positive floats in units of
// least precision.
func ulpsApart(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x < y {
		x, y = y, x
	}
	return x - y
}

// TestEOSMatchesPowSpelling: the one-log-one-exp helper against the two
// Pow calls it replaced, over the whole range x = Rd*rho*theta/P0 takes
// between the model top and a surface well above P0 (measured: 11 ulp on
// p, 9 on Exner); and on isothermal columns at rest it returns the dry
// mid-layer pressure, the equilibrium the implicit solver relies on.
func TestEOSMatchesPowSpelling(t *testing.T) {
	const theta, n, maxUlps = 300.0, 200000, 16
	var worstP, worstEx uint64
	for i := 0; i <= n; i++ {
		rho := math.Exp(math.Log(1e-3)+float64(i)/n*math.Log(3/1e-3)) * P0 / (Rd * theta)
		p, ex := eos(rho, theta)
		wantP := P0 * math.Pow(Rd*rho*theta/P0, Gamma)
		worstP = max(worstP, ulpsApart(p, wantP))
		worstEx = max(worstEx, ulpsApart(ex, math.Pow(wantP/P0, Rd/Cp)))
	}
	t.Logf("worst distance from the Pow spelling: p %d ulp, Exner %d ulp", worstP, worstEx)
	if worstP > maxUlps || worstEx > maxUlps {
		t.Errorf("eos is %d ulp (p) / %d ulp (Exner) from the Pow spelling, limit %d", worstP, worstEx, maxUlps)
	}

	const nlev = 12
	s := NewState(testMesh(t, 1), nlev)
	s.IsothermalRest(280)
	dpi := s.DryMass[0]
	for k := 0; k < nlev; k++ {
		pmid := PTop + (float64(k)+0.5)*dpi
		if rel := math.Abs(s.LayerPressureFromPhi(3, k)-pmid) / pmid; rel > 1e-13 {
			t.Errorf("level %d: equation-of-state pressure is %.3g (relative) off the dry mid-layer pressure", k, rel)
		}
	}
}
