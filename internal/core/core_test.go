package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"gristgo/internal/dycore"
	"gristgo/internal/mesh"
	"gristgo/internal/physics"
	"gristgo/internal/precision"
	"gristgo/internal/synthclim"
	"gristgo/internal/tracer"
)

var sharedMesh3 = mesh.New(3).ReorderBFS()

func newTestModel(t testing.TB, nlev int, mode precision.Mode) *Model {
	t.Helper()
	cfg := Config{GridLevel: 3, NLev: nlev, Mode: mode}
	return NewModelOnMesh(cfg, physics.NewConventional(nlev), sharedMesh3)
}

func TestScaledStepsConsistent(t *testing.T) {
	// G12 must reproduce Table 2 (whose ratios are deliberately
	// non-integral: trac/dyn = 7.5).
	st := scaledSteps(12)
	if st.Dyn != 4 || st.Trac != 30 || st.Phy != 60 || st.Rad != 180 {
		t.Errorf("G12 steps: %+v", st)
	}
	// Effective sub-cycling must be exactly nested at every level.
	for level := 3; level <= 12; level++ {
		cfg := Config{GridLevel: level, NLev: 4, Steps: scaledSteps(level)}
		mod := &Model{Cfg: cfg}
		nDyn, nTrac, dtTrac, dtPhy := mod.EffectiveSteps()
		if nDyn < 1 || nTrac < 1 {
			t.Fatalf("level %d: zero sub-cycles", level)
		}
		if math.Abs(dtTrac-float64(nDyn)*cfg.Steps.Dyn) > 1e-9 {
			t.Errorf("level %d: tracer step not a whole number of dyn steps", level)
		}
		if math.Abs(dtPhy-float64(nTrac)*dtTrac) > 1e-9 {
			t.Errorf("level %d: physics step not a whole number of tracer steps", level)
		}
	}
}

func TestModelInitializeClimatePhysical(t *testing.T) {
	mod := newTestModel(t, 8, precision.DP)
	cl := synthclim.ForPeriod(synthclim.Table1()[2], 0)
	mod.InitializeClimate(cl)

	s := mod.Engine.State()
	for c := 0; c < mod.Mesh.NCells; c++ {
		for k := 0; k < 8; k++ {
			th := s.Theta(c, k)
			if th < 150 || th > 2500 {
				t.Fatalf("theta out of range at (%d,%d): %v", c, k, th)
			}
		}
	}
	// Tropics moister than poles.
	var qTrop, qPole float64
	var nTrop, nPole int
	for c := 0; c < mod.Mesh.NCells; c++ {
		q := mod.In.Qv[c*8+7]
		_ = q
		qv := mod.Tracers.MixingRatio(0, c, 7)
		switch {
		case math.Abs(mod.Mesh.CellLat[c]) < 0.2:
			qTrop += qv
			nTrop++
		case math.Abs(mod.Mesh.CellLat[c]) > 1.2:
			qPole += qv
			nPole++
		}
	}
	if qTrop/float64(nTrop) <= qPole/float64(nPole) {
		t.Error("tropics not moister than poles")
	}
}

func TestModelShortRunStableAndRains(t *testing.T) {
	mod := newTestModel(t, 8, precision.DP)
	cl := synthclim.ForPeriod(synthclim.Table1()[2], 0)
	mod.InitializeClimate(cl)

	mass0 := mod.Engine.State().GlobalDryMass()
	mod.RunHours(6, cl.Season)
	s := mod.Engine.State()

	// Stability.
	for i, d := range s.DryMass {
		if d <= 0 || math.IsNaN(d) {
			t.Fatalf("bad dry mass at %d: %v", i, d)
		}
	}
	for _, u := range s.U {
		if math.IsNaN(u) || math.Abs(u) > 300 {
			t.Fatalf("wind blew up: %v", u)
		}
	}
	// Dry mass conserved (physics does not add dry air).
	if rel := math.Abs(s.GlobalDryMass()-mass0) / mass0; rel > 1e-10 {
		t.Errorf("dry mass drifted %g", rel)
	}
	// Some precipitation somewhere in 6 h on a moist planet.
	var total float64
	for _, p := range mod.PrecipRate() {
		total += p
	}
	if total <= 0 {
		t.Error("no precipitation anywhere after 6 hours")
	}
}

func TestCosZenithDayNight(t *testing.T) {
	mod := newTestModel(t, 4, precision.DP)
	season := 0.0
	day := 0
	night := 0
	for c := 0; c < mod.Mesh.NCells; c++ {
		cz := mod.CosZenith(c, season)
		if cz < 0 || cz > 1 {
			t.Fatalf("cos zenith out of range: %v", cz)
		}
		if cz > 0 {
			day++
		} else {
			night++
		}
	}
	// Roughly half the planet lit.
	frac := float64(day) / float64(day+night)
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("lit fraction %v", frac)
	}
}

func TestCellWindsRecoverUniformFlow(t *testing.T) {
	m := sharedMesh3
	nlev := 2
	u := make([]float64, m.NEdges*nlev)
	// A constant 3-space vector field (its tangential projection is a
	// smooth flow well-defined everywhere, including at the poles).
	vel := mesh.Vec3{X: 9, Y: -5, Z: 3}
	for e := 0; e < m.NEdges; e++ {
		for k := 0; k < nlev; k++ {
			u[e*nlev+k] = vel.Dot(m.EdgeNormal[e])
		}
	}
	uc, vc := CellWinds(m, u, nlev)
	for c := int32(0); c < int32(m.NCells); c++ {
		east, north := mesh.TangentBasis(m.CellPos[c])
		wantU := vel.Dot(east)
		wantV := vel.Dot(north)
		i := int(c) * nlev
		if math.Abs(uc[i]-wantU) > 0.8 || math.Abs(vc[i]-wantV) > 0.8 {
			t.Fatalf("cell %d winds (%.2f, %.2f), want (%.2f, %.2f)", c, uc[i], vc[i], wantU, wantV)
		}
	}
}

func TestDistributedMatchesSerial(t *testing.T) {
	m := sharedMesh3
	nlev := 6
	init := func(s *dycore.State) {
		s.IsothermalRest(295)
		s.AddThermalBubble(0.4, 1.2, 0.25, 6)
		s.AddSolidBodyWind(18)
	}
	steps := 5
	dt := 90.0

	serialEng := dycore.New(m, nlev, precision.DP)
	init(serialEng.State())
	for i := 0; i < steps; i++ {
		serialEng.Step(dt)
	}
	serial := serialEng.State()

	for _, nparts := range []int{2, 4, 7} {
		dist := RunDistributedDynamics(m, nlev, nparts, precision.DP, init, steps, dt)
		assertBitwise(t, dist, serial, fmt.Sprintf("nparts=%d", nparts))
	}
}

// The merged state of a distributed run carries the terrain Init set:
// State.Region does not walk PhiSurf, so the gather copies rank 0's. A
// terrain Init must come back with PhiSurf, and every other field,
// bitwise equal to the serial run's.
func TestDistributedKeepsTerrainBitwise(t *testing.T) {
	m := sharedMesh3
	nlev, steps, dt := 4, 3, 90.0
	init := func(s *dycore.State) {
		resilientInit(s)
		for c := range s.PhiSurf {
			s.PhiSurf[c] = dycore.Gravity * synthclim.Terrain(m.CellLat[c], m.CellLon[c])
		}
		dycore.HydrostaticRebalance(s)
	}
	eng := dycore.New(m, nlev, precision.DP)
	init(eng.State())
	for i := 0; i < steps; i++ {
		eng.Step(dt)
	}
	serial := eng.State()
	if slices.Max(serial.PhiSurf) <= 0 {
		t.Fatal("the terrain Init set no surface geopotential")
	}
	dist := RunDistributedDynamics(m, nlev, 3, precision.DP, init, steps, dt)
	assertBitwise(t, dist, serial, "terrain")
	for c := range serial.PhiSurf {
		if math.Float64bits(dist.PhiSurf[c]) != math.Float64bits(serial.PhiSurf[c]) {
			t.Fatalf("PhiSurf[%d] = %v merged, %v serial", c, dist.PhiSurf[c], serial.PhiSurf[c])
		}
	}
}

func TestDistributedMixedPrecision(t *testing.T) {
	m := sharedMesh3
	nlev := 4
	init := func(s *dycore.State) {
		s.IsothermalRest(290)
		s.AddSolidBodyWind(20)
	}
	dist := RunDistributedDynamics(m, nlev, 3, precision.Mixed, init, 3, 60)
	for _, d := range dist.DryMass {
		if d <= 0 || math.IsNaN(d) {
			t.Fatal("mixed-precision distributed run produced bad mass")
		}
	}
}

func TestDistPlanCoversMesh(t *testing.T) {
	m := sharedMesh3
	pl := NewDistPlan(m, 4, 5, 7)
	cellCount := 0
	for p := 0; p < 5; p++ {
		cellCount += len(pl.TendCells[p])
	}
	if cellCount != m.NCells {
		t.Errorf("owned cells cover %d of %d", cellCount, m.NCells)
	}
	edgeSeen := make(map[int32]int)
	for p := 0; p < 5; p++ {
		for _, e := range pl.UEdges[p] {
			edgeSeen[e]++
		}
	}
	if len(edgeSeen) != m.NEdges {
		t.Errorf("owned edges cover %d of %d", len(edgeSeen), m.NEdges)
	}
	for e, n := range edgeSeen {
		if n != 1 {
			t.Fatalf("edge %d owned by %d ranks", e, n)
		}
	}
}

// TestDistributedModelMatchesSerial validates the distributed dynamics +
// tracer transport against the serial pipeline: tracer fields and dry
// mass agree to rounding across rank counts.
func TestDistributedModelMatchesSerial(t *testing.T) {
	m := sharedMesh3
	nlev := 4
	init := func(s *dycore.State, f *tracer.Field) {
		s.IsothermalRest(295)
		s.AddSolidBodyWind(25)
		s.AddThermalBubble(0.3, 1.0, 0.25, 4)
		copy(f.Mass, s.DryMass)
		for c := 0; c < m.NCells; c++ {
			for k := 0; k < nlev; k++ {
				f.SetMixingRatio(tracer.QV, c, k, 0.01*math.Exp(-5*math.Pow(m.CellLat[c]-0.2, 2)))
				f.SetMixingRatio(tracer.QC, c, k, 1e-4)
			}
		}
	}
	nTrac, nDyn, dt := 3, 4, 90.0

	// Serial reference.
	engS := dycore.New(m, nlev, precision.DP)
	transS := tracer.New(m, nlev, precision.DP)
	fieldS := tracer.NewField(m, nlev, engS.State().DryMass)
	init(engS.State(), fieldS)
	for it := 0; it < nTrac; it++ {
		engS.ResetMassFluxAccum()
		for id := 0; id < nDyn; id++ {
			engS.Step(dt)
		}
		acc := engS.MassFluxAccum()
		avg := make([]float64, len(acc))
		for i, a := range acc {
			avg[i] = a / float64(engS.AccumSteps())
		}
		transS.Step(fieldS, avg, float64(nDyn)*dt)
	}

	for _, nparts := range []int{2, 5} {
		stateD, rep := MustRun(coupledSpec(m, nlev, nparts, precision.DP, init, nTrac, nDyn, dt))
		fieldD := rep.Tracers
		for i := range fieldS.Q[tracer.QV] {
			if d := math.Abs(fieldD.Q[tracer.QV][i] - fieldS.Q[tracer.QV][i]); d > 1e-9 {
				t.Fatalf("nparts=%d: qv[%d] differs by %g", nparts, i, d)
			}
			if d := math.Abs(fieldD.Q[tracer.QC][i] - fieldS.Q[tracer.QC][i]); d > 1e-9 {
				t.Fatalf("nparts=%d: qc[%d] differs by %g", nparts, i, d)
			}
		}
		for i := range fieldS.Mass {
			if d := math.Abs(fieldD.Mass[i] - fieldS.Mass[i]); d > 1e-8 {
				t.Fatalf("nparts=%d: tracer mass[%d] differs by %g", nparts, i, d)
			}
		}
		for i := range stateD.DryMass {
			if d := math.Abs(stateD.DryMass[i] - engS.State().DryMass[i]); d > 1e-8 {
				t.Fatalf("nparts=%d: dry mass[%d] differs by %g", nparts, i, d)
			}
		}
	}
}
