package core

import (
	"testing"

	"gristgo/internal/mesh"
	"gristgo/internal/physics"
	"gristgo/internal/pintest"
	"gristgo/internal/precision"
	"gristgo/internal/synthclim"
	"gristgo/internal/tracer"
)

// TestPinnedCoupledTrajectory holds the coupled model — mixed-precision
// dynamics over terrain, tracer sub-cycling on the averaged mass flux,
// conventional physics and the condensate chain — to the trajectory in
// testdata/pin: state and tracer mass after two physics steps (32
// dynamics steps) at G2 x 6. It is the fixed reference a change to the
// dycore kernels or to the coupling is judged against (the dycore's own
// pins run flat idealized cases, so this is also the pin of the
// reference-geopotential term of the pressure gradient).
func TestPinnedCoupledTrajectory(t *testing.T) {
	const nlev = 6
	cl := synthclim.ForPeriod(synthclim.Table1()[1], 0)
	mod := NewModelOnMesh(Config{GridLevel: 2, NLev: nlev, Mode: precision.Mixed},
		physics.NewConventional(nlev), mesh.New(2).ReorderBFS())
	mod.InitializeClimate(cl)
	mod.SetTerrain(synthclim.Terrain)
	for i := 0; i < 2; i++ {
		mod.StepPhysics(cl.Season)
	}

	s := mod.Engine.State()
	fields := []pintest.Field{
		{Name: "DryMass", Data: s.DryMass, Bound: 1e-12},
		{Name: "ThetaM", Data: s.ThetaM, Bound: 1e-12},
		{Name: "U", Data: s.U, Bound: 1e-12},
		{Name: "W", Data: s.W, Bound: 1e-9},
		{Name: "Phi", Data: s.Phi, Bound: 1e-12},
		{Name: "TracMass", Data: mod.Tracers.Mass, Bound: 1e-12},
	}
	for sp := tracer.QV; sp < tracer.NumSpecies; sp++ {
		fields = append(fields, pintest.Field{Name: sp.String(), Data: mod.Tracers.Q[sp], Bound: 1e-12})
	}
	pintest.Check(t, "testdata/pin/coupled_mix_g2l6_phys2.f64", fields)
}
