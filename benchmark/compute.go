package main

import (
	"math"
	"time"

	"gristgo/internal/core"
	"gristgo/internal/dycore"
	"gristgo/internal/mesh"
	"gristgo/internal/mlphysics"
	"gristgo/internal/physics"
	"gristgo/internal/precision"
	"gristgo/internal/synthclim"
)

// medianOf runs f reps times and returns the median wall time in
// seconds; what the last repetition built is what the caller keeps.
func medianOf(reps int, f func()) float64 {
	walls := make([]float64, reps)
	for i := range walls {
		t0 := time.Now()
		f()
		walls[i] = time.Since(t0).Seconds()
	}
	return median(walls)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// scaled applies the traced run's shortening to a count, never below 2.
func scaled(n int, scale float64) int {
	v := int(math.Round(float64(n) * scale))
	if v < 2 {
		v = 2
	}
	return v
}

func allFinite(xs ...[]float64) bool {
	for _, x := range xs {
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// maxRelDiff is max|a-b| over max|b|.
func maxRelDiff(a, b []float64) float64 {
	var d, scale float64
	for i := range b {
		d = math.Max(d, math.Abs(a[i]-b[i]))
		scale = math.Max(scale, math.Abs(b[i]))
	}
	if scale == 0 {
		return d
	}
	return d / scale
}

// ---- dyn_dp_g5l30_r2 -------------------------------------------------

type dynInst struct {
	sz     sizes
	m      *mesh.Mesh
	initFn func(*dycore.State)
	mass0  float64
}

func prepareDyn(c *runCtx) (instance, prepared, error) {
	sz := c.sz
	d := &dynInst{sz: sz, initFn: bubbleInit(c.seed)}
	var p prepared
	p.setupS = medianOf(c.reps+2, func() {
		d.m = mesh.New(sz.DynLevel).ReorderBFS()
		core.NewDistPlan(d.m, sz.DynNLev, sz.DynRanks, 12345)
	})

	// Distributed must equal serial to rounding before any speed is
	// worth reporting.
	ser := dycore.New(d.m, sz.DynNLev, precision.DP)
	d.initFn(ser.State())
	d.mass0 = ser.State().GlobalDryMass()
	for i := 0; i < sz.DynCheckSteps; i++ {
		ser.Step(sz.DynDt)
	}
	dist := core.RunDistributedDynamics(d.m, sz.DynNLev, sz.DynRanks, precision.DP, d.initFn, sz.DynCheckSteps, sz.DynDt)
	s := ser.State()
	for _, f := range []struct {
		name string
		a, b []float64
	}{{"DryMass", dist.DryMass, s.DryMass}, {"ThetaM", dist.ThetaM, s.ThetaM}, {"U", dist.U, s.U}} {
		r := maxRelDiff(f.a, f.b)
		p.check(r <= 1e-9, "distributed vs serial %s differs by %.3g relative after %d steps (limit 1e-9)", f.name, r, sz.DynCheckSteps)
	}
	return d, p, nil
}

// dynCalls is how many distributed calls one measured phase makes; the
// phase's steps are split evenly over them and the quiet quartile of the
// calls is reported, so a slow call does not set the result.
const dynCalls = 6

func (d *dynInst) measure(rec *recorder, scale float64) measurement {
	sz := d.sz
	steps := scaled(sz.DynSteps, scale/dynCalls)
	m := measurement{
		unitWork: float64(d.m.NCells * sz.DynNLev * steps),
		checks:   checks{attempted: dynCalls * (steps + 2)},
		counts:   map[string]int{"calls": dynCalls, "steps_per_call": steps, "cells": d.m.NCells, "levels": sz.DynNLev, "ranks": sz.DynRanks},
	}
	for call := 0; call < dynCalls; call++ {
		var final *dycore.State
		root := rec.begin("core.run_distributed", noSpan, 0)
		t0 := time.Now()
		if rec == nil {
			final = core.RunDistributedDynamics(d.m, sz.DynNLev, sz.DynRanks, precision.DP, d.initFn, steps, sz.DynDt)
		} else {
			// The Timed entry point is the same driver plus one stats
			// drain per rank; its counters become the child spans.
			tm := core.NewTimings()
			final, _ = core.RunDistributedDynamicsTimed(d.m, sz.DynNLev, sz.DynRanks, precision.DP, d.initFn, steps, sz.DynDt, tm)
			rec.end(root)
			dyn, _ := tm.Get("dynamics")
			wait, _ := tm.Get("halo_wait")
			perRank := func(x time.Duration) time.Duration { return x / time.Duration(sz.DynRanks) }
			// Laid at the end of the call: set-up precedes the step loop.
			cur := rec.startOf(root) + int64(time.Since(t0)-perRank(dyn))
			cur = rec.replay("dycore.step_loop", root, 0, cur, perRank(dyn-wait))
			rec.replay("comm.halo_wait", root, 0, cur, perRank(wait))
		}
		m.unitMS = append(m.unitMS, ms(time.Since(t0)))
		if !allFinite(final.DryMass, final.ThetaM, final.U, final.W, final.Phi) {
			m.fail("non-finite field after %d steps", steps)
		}
		if drift := math.Abs(final.GlobalDryMass()-d.mass0) / d.mass0; !(drift <= 1e-10) {
			m.fail("global dry mass drifted by %.3g relative (limit 1e-10)", drift)
		}
	}
	m.aggregate()
	m.aliases = []alias{{"cell_levels_per_s", "1/s", m.rate, dynCalls}}
	return m
}

func (d *dynInst) close() {}

// ---- coupled_ml_mix_g4l20 ---------------------------------------------

type coupledInst struct {
	sz     sizes
	mod    *core.Model
	suite  *mlphysics.Suite
	season float64
}

// newCoupled builds the coupled model reps times and returns the last
// one with the median set-up time.
func newCoupled(seed int64, sz sizes, reps int) (*coupledInst, float64) {
	ci := &coupledInst{sz: sz}
	cl := synthclim.ForPeriod(synthclim.Table1()[2], 0)
	ci.season = cl.Season
	setupS := medianOf(reps, func() {
		m := mesh.New(sz.CplLevel).ReorderBFS()
		// Output scale 1e-7: the untrained networks perturb the state
		// rather than wreck it (finite, no fallbacks, winds as with the
		// conventional suite).
		ci.suite = newSuite(seed, sz.CplNLev, 1e-7)
		ci.suite.SetPrecision(precision.Mixed)
		ci.mod = core.NewModelOnMesh(core.Config{GridLevel: sz.CplLevel, NLev: sz.CplNLev, Mode: precision.Mixed, HostWorkers: 2}, ci.suite, m)
		ci.mod.InitializeClimate(cl)
		// Inference plans compile on the first batched call; pay that
		// here, on columns that are not the model's.
		_, _, _, dtPhy := ci.mod.EffectiveSteps()
		ci.suite.Compute(columnInput(seed, m.NCells, sz.CplNLev), physics.NewOutput(m.NCells, sz.CplNLev), dtPhy)
	})
	return ci, setupS
}

func prepareCoupled(c *runCtx) (instance, prepared, error) {
	sz := c.sz
	var p prepared
	var ci *coupledInst
	ci, p.setupS = newCoupled(c.seed, sz, c.reps+2)

	// §3.4: two dynamics steps in MIX must stay within 5% ps / vor of DP.
	run := func(mode precision.Mode) (ps, vor []float64) {
		eng := dycore.NewFromState(ci.mod.Engine.State().Clone(), mode)
		for i := 0; i < 2; i++ {
			eng.Step(ci.mod.Cfg.Steps.Dyn)
		}
		return eng.State().SurfacePressure(), eng.VorticityAtLevel(sz.CplNLev / 2)
	}
	psDP, vorDP := run(precision.DP)
	psMX, vorMX := run(precision.Mixed)
	dev := precision.Measure(psMX, psDP, vorMX, vorDP)
	p.check(dev.Acceptable(), "MIX vs DP after 2 steps: ps %.3g vor %.3g (limit %.2f)", dev.Ps, dev.Vor, precision.ErrorThreshold)
	return ci, p, nil
}

// coupledSpans maps the component timers of StepPhysicsTimed onto the
// child spans of one physics step.
var coupledSpans = []struct{ span, timer string }{
	{"dycore.dynamics", "dynamics"},
	{"tracer.transport", "tracer_transport"},
	{"core.coupling_input", "coupling_input"},
	{"mlphysics.compute", "physics_ML-physics"},
	{"core.coupling_output", "coupling_output"},
}

func (ci *coupledInst) measure(rec *recorder, scale float64) measurement {
	return ci.run(rec, scaled(ci.sz.CplSteps, scale))
}

// run advances the model by steps physics steps, timing each.
func (ci *coupledInst) run(rec *recorder, steps int) measurement {
	mod := ci.mod
	time0 := mod.TimeSec
	fallbacks0 := ci.suite.FallbackCount()
	m := measurement{checks: checks{attempted: steps + 2}, counts: map[string]int{"physics_steps": steps, "cells": mod.Mesh.NCells, "levels": ci.sz.CplNLev}}
	for i := 0; i < steps; i++ {
		t0 := time.Now()
		if rec == nil {
			mod.StepPhysics(ci.season)
		} else {
			id := rec.begin("core.phys_step", noSpan, 0)
			tm := core.NewTimings()
			mod.StepPhysicsTimed(ci.season, tm)
			rec.end(id)
			cur := rec.startOf(id)
			for _, cs := range coupledSpans {
				d, _ := tm.Get(cs.timer)
				cur = rec.replay(cs.span, id, 0, cur, d)
			}
		}
		m.unitMS = append(m.unitMS, ms(time.Since(t0)))
	}
	m.unitWork = (mod.TimeSec - time0) / float64(steps) // simulated seconds per physics step
	m.aggregate()

	s := mod.Engine.State()
	if !allFinite(s.DryMass, s.ThetaM, s.U, s.W, s.Phi) {
		m.fail("non-finite state after %d physics steps", steps)
	}
	if n := ci.suite.FallbackCount() - fallbacks0; n != 0 {
		m.fail("ML suite fell back to the scalar oracle %d times", n)
	}
	nDyn, nTrac, _, _ := mod.EffectiveSteps()
	m.counts["dyn_substeps_per_step"], m.counts["tracer_steps_per_step"] = nDyn*nTrac, nTrac
	m.aliases = []alias{{"sypd", "y/d", m.rate / 365, steps}}
	return m
}

func (ci *coupledInst) close() {}

// ---- mlphys_batch_g5l30 -----------------------------------------------

type mlInst struct {
	sz     sizes
	suite  *mlphysics.Suite
	in     *physics.Input
	out    *physics.Output
	tskin0 []float64
}

const mlDt = 600

// newML builds the inputs once and the suite reps times, and returns the
// median set-up time: construction plus the warm-up call that compiles
// the inference plans and sizes the batch buffers.
func newML(seed int64, sz sizes, reps int) (*mlInst, float64) {
	ncol := int(mesh.Census(sz.MLLevel).Cells)
	mi := &mlInst{sz: sz, in: columnInput(seed, ncol, sz.MLNLev), out: physics.NewOutput(ncol, sz.MLNLev)}
	mi.tskin0 = append([]float64(nil), mi.in.Tskin...)
	setupS := medianOf(reps, func() {
		mi.suite = newSuite(seed, sz.MLNLev, 1)
		mi.suite.SetWorkers(2)
		mi.suite.SetPrecision(precision.Mixed)
		mi.suite.Compute(mi.in, mi.out, mlDt)
		copy(mi.in.Tskin, mi.tskin0)
	})
	return mi, setupS
}

func prepareMLBatch(c *runCtx) (instance, prepared, error) {
	sz := c.sz
	var p prepared
	var mi *mlInst
	mi, p.setupS = newML(c.seed, sz, c.reps)

	// Batched FP64 must equal the scalar oracle bit for bit, and FP32
	// must stay close to FP64, on a slice of the same columns.
	n := sz.MLCheckCols
	sub := columnInput(c.seed, n, sz.MLNLev)
	tskin := append([]float64(nil), sub.Tskin...)
	compute := func(configure func(*mlphysics.Suite)) *physics.Output {
		s := newSuite(c.seed, sz.MLNLev, 1)
		configure(s)
		out := physics.NewOutput(n, sz.MLNLev)
		s.Compute(sub, out, mlDt)
		copy(sub.Tskin, tskin)
		return out
	}
	oracle := compute(func(s *mlphysics.Suite) { s.SetScalarOracle(true) })
	fp64 := compute(func(s *mlphysics.Suite) { s.SetWorkers(2) })
	fp32 := compute(func(s *mlphysics.Suite) { s.SetWorkers(2); s.SetPrecision(precision.Mixed) })
	bitwise := true
	for _, pair := range [][2][]float64{{fp64.Q1, oracle.Q1}, {fp64.Q2, oracle.Q2}, {fp64.Gsw, oracle.Gsw}, {fp64.Glw, oracle.Glw}, {fp64.Precip, oracle.Precip}} {
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				bitwise = false
			}
		}
	}
	p.check(bitwise, "batched FP64 differs from the scalar oracle on %d columns", n)
	for _, f := range []struct {
		name string
		a, b []float64
	}{{"Q1", fp32.Q1, fp64.Q1}, {"Q2", fp32.Q2, fp64.Q2}, {"Gsw", fp32.Gsw, fp64.Gsw}, {"Glw", fp32.Glw, fp64.Glw}} {
		r := precision.RelL2(f.a, f.b)
		p.check(r <= 1e-3, "FP32 %s is %.3g relative L2 from FP64 (limit 1e-3)", f.name, r)
	}
	return mi, p, nil
}

func (mi *mlInst) measure(rec *recorder, scale float64) measurement {
	return mi.run(rec, scaled(mi.sz.MLCalls, scale))
}

// run times calls Suite.Compute calls over the full batch.
func (mi *mlInst) run(rec *recorder, calls int) measurement {
	m := measurement{checks: checks{attempted: calls + 1}, counts: map[string]int{"calls": calls, "columns": mi.in.NCol, "levels": mi.sz.MLNLev}}
	fallbacks0 := mi.suite.FallbackCount()
	for i := 0; i < calls; i++ {
		id := rec.begin("mlphysics.compute", noSpan, 0)
		t0 := time.Now()
		mi.suite.Compute(mi.in, mi.out, mlDt)
		d := time.Since(t0)
		rec.end(id)
		m.unitMS = append(m.unitMS, ms(d))
		copy(mi.in.Tskin, mi.tskin0) // the surface slab advances Tskin
		if !allFinite(mi.out.Q1, mi.out.Q2, mi.out.Gsw, mi.out.Glw) {
			m.fail("non-finite output on call %d", i)
		}
	}
	if n := mi.suite.FallbackCount() - fallbacks0; n != 0 {
		m.fail("ML suite fell back to the scalar oracle %d times", n)
	}
	m.unitWork = float64(mi.in.NCol)
	m.aggregate()
	m.aliases = []alias{
		{"columns_per_s", "1/s", m.rate, calls},
		{"mlphysics.compute_ms_p50", "ms", median(m.unitMS), calls},
	}
	return m
}

func (mi *mlInst) close() {}
