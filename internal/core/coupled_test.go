package core

import (
	"fmt"
	"math"
	"testing"

	"gristgo/internal/dycore"
	"gristgo/internal/fault"
	"gristgo/internal/mesh"
	"gristgo/internal/obs"
	"gristgo/internal/precision"
	"gristgo/internal/telemetry"
	"gristgo/internal/tracer"
)

// coupledSpec is the Run spelling of dynamics + tracer transport: nTrac
// tracer sub-cycles of nDyn dynamics steps of dt, where init writes the
// initial state and tracer field.
func coupledSpec(m *mesh.Mesh, nlev, nparts int, mode precision.Mode,
	init func(*dycore.State, *tracer.Field), nTrac, nDyn int, dt float64) RunSpec {
	s0 := dycore.NewState(m, nlev)
	f0 := tracer.NewField(m, nlev, s0.DryMass)
	init(s0, f0)
	return RunSpec{
		Mesh: m, NLev: nlev, NParts: nparts, Mode: mode, Steps: nTrac * nDyn, Dt: dt,
		Init:    func(s *dycore.State) { init(s, tracer.NewField(m, nlev, s.DryMass)) },
		Tracers: f0, TracerEvery: nDyn,
	}
}

// coupledInit is the initial condition of the coupled tests: the
// recovery tests' thermal bubble in solid-body flow, carrying a
// latitude-banded vapour field and uniform cloud water.
func coupledInit(s *dycore.State, f *tracer.Field) {
	resilientInit(s)
	copy(f.Mass, s.DryMass)
	m := s.M
	for c := 0; c < m.NCells; c++ {
		for k := 0; k < s.NLev; k++ {
			f.SetMixingRatio(tracer.QV, c, k, 0.01*math.Exp(-5*math.Pow(m.CellLat[c]-0.2, 2)))
			f.SetMixingRatio(tracer.QC, c, k, 1e-4)
		}
	}
}

// tracerFields names a tracer field's arrays for comparison.
func tracerFields(f *tracer.Field) map[string][]float64 {
	out := map[string][]float64{"Mass": f.Mass}
	for sp := range f.Q {
		out[tracer.Species(sp).String()] = f.Q[sp]
	}
	return out
}

// assertTracersBitwise compares two tracer fields exactly.
func assertTracersBitwise(t *testing.T, got, want *tracer.Field, label string) {
	t.Helper()
	w := tracerFields(want)
	for name, a := range tracerFields(got) {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(w[name][i]) {
				t.Fatalf("%s: tracer %s[%d] = %v, want %v (not bitwise identical)", label, name, i, a[i], w[name][i])
			}
		}
	}
}

// The coupled distributed state comes back whole: all five prognostic
// fields and every tracer array of the merged result match the serial
// sub-cycle bit for bit, where the coupled model's former gather returned U, W and
// Phi as zeros.
func TestCoupledRunReturnsWholeStateMatchingSerial(t *testing.T) {
	m := sharedMesh3
	nlev, nTrac, nDyn, dt := 4, 3, 4, 90.0

	eng := dycore.New(m, nlev, precision.DP)
	trans := tracer.New(m, nlev, precision.DP)
	fieldS := tracer.NewField(m, nlev, eng.State().DryMass)
	coupledInit(eng.State(), fieldS)
	avg := make([]float64, len(eng.MassFluxAccum()))
	for it := 0; it < nTrac; it++ {
		eng.ResetMassFluxAccum()
		for id := 0; id < nDyn; id++ {
			eng.Step(dt)
		}
		for i, a := range eng.MassFluxAccum() {
			avg[i] = a / float64(eng.AccumSteps())
		}
		trans.Step(fieldS, avg, float64(nDyn)*dt)
	}
	serial := eng.State()

	for _, nparts := range []int{2, 5} {
		got, rep := MustRun(coupledSpec(m, nlev, nparts, precision.DP, coupledInit, nTrac, nDyn, dt))
		label := fmt.Sprintf("nparts=%d", nparts)
		assertBitwise(t, got, serial, label)
		assertTracersBitwise(t, rep.Tracers, fieldS, label)
	}
}

// Overlapped and blocking halo rounds give the same coupled run bit for
// bit: the tracer round sits outside the dycore's overlap window.
func TestCoupledRunOverlapMatchesBlocking(t *testing.T) {
	spec := coupledSpec(sharedMesh3, 4, 4, precision.DP, coupledInit, 2, 3, 90.0)
	overlap, repO := MustRun(spec)
	spec.Blocking = true
	blocking, repB := MustRun(spec)
	assertBitwise(t, overlap, blocking, "coupled overlap vs blocking")
	assertTracersBitwise(t, repO.Tracers, repB.Tracers, "coupled overlap vs blocking")
}

// A node killed mid-run by the step gate, with no checkpoint directory,
// rolls the coupled run back to the initial state and field; with the
// sentinels and per-node rings armed the replay still equals the
// uninjected run bitwise.
func TestCoupledRunRankDeathRollsBackBitwise(t *testing.T) {
	spec := coupledSpec(sharedMesh3, 4, 3, precision.DP, coupledInit, 3, 2, 90.0)
	clean, repC := MustRun(spec)

	halo, sync := testTimeouts()
	mon := newTestMonitor(telemetry.NewRegistry())
	spec.Injector = fault.NewPlan(5, fault.Profile{Name: "rankdeath", KillRank: 1, KillStep: 3})
	spec.HaloTimeout, spec.SyncTimeout, spec.Monitor, spec.Recs = halo, sync, mon, newRings(spec.NParts)
	got, rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recoveries != 1 || rep.Events[0].Kind != "rollback" || rep.Events[0].ResumeStep != 0 {
		t.Fatalf("want one rollback to the initial state: %+v", rep.Events)
	}
	if n := mon.TotalTrips(); n != 0 {
		t.Fatalf("%d sentinel trips on a healthy run: %+v", n, mon.Trips())
	}
	assertBitwise(t, got, clean, "coupled rollback replay")
	assertTracersBitwise(t, rep.Tracers, repC.Tracers, "coupled rollback replay")
}

// tracer_step spans carry the rank's own step, as the engine and
// exchanger spans do, so the merged timeline files each sub-cycle's
// transport under the step that closed it.
func TestCoupledRunSpansCarryRankStep(t *testing.T) {
	spec := coupledSpec(sharedMesh3, 4, 3, precision.DP, coupledInit, 3, 2, 90.0)
	spec.Recs = newRings(spec.NParts)
	MustRun(spec)
	assertEveryStepTraced(t, spec.Recs, spec.Steps)

	tl := obs.Merge(obs.Rings(spec.Recs...))
	if tl.Unstepped != 0 {
		t.Fatalf("%d spans carry no step", tl.Unstepped)
	}
	for _, st := range tl.Steps {
		for _, rs := range st.Ranks {
			n := 0
			for _, sp := range rs.Spans {
				if sp.Name == "tracer_step" {
					n++
				}
			}
			want := 0
			if st.Step%int64(spec.TracerEvery) == 0 {
				want = 1
			}
			if n != want {
				t.Fatalf("rank %d step %d holds %d tracer_step spans, want %d", rs.Rank, st.Step, n, want)
			}
		}
	}
}
