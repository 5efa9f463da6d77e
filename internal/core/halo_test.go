package core

import (
	"math"
	"testing"

	"gristgo/internal/dycore"
	"gristgo/internal/precision"
)

// TestOverlapBitIdenticalToBlocking: the Start/interior/Finish/boundary
// schedule must produce exactly the same bits as running every exchange
// as a blocking round — the payload is sealed at Start and the interior
// partition reads no halo data, so overlap is free of rounding cost.
func TestOverlapBitIdenticalToBlocking(t *testing.T) {
	m := sharedMesh3
	nlev := 5
	init := func(s *dycore.State) {
		s.IsothermalRest(292)
		s.AddThermalBubble(0.5, 1.0, 0.3, 5)
		s.AddSolidBodyWind(22)
	}
	steps := 4
	dt := 90.0
	for _, mode := range []precision.Mode{precision.DP, precision.Mixed} {
		for _, nparts := range []int{3, 6} {
			spec := RunSpec{Mesh: m, NLev: nlev, NParts: nparts, Mode: mode, Init: init, Steps: steps, Dt: dt}
			overlap, _, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			spec.Blocking = true
			blocking, _, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			cmp := func(name string, a, b []float64) {
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("mode=%v nparts=%d: %s[%d] differs bitwise: %g vs %g",
							mode, nparts, name, i, a[i], b[i])
					}
				}
			}
			cmp("DryMass", overlap.DryMass, blocking.DryMass)
			cmp("ThetaM", overlap.ThetaM, blocking.ThetaM)
			cmp("U", overlap.U, blocking.U)
			cmp("W", overlap.W, blocking.W)
			cmp("Phi", overlap.Phi, blocking.Phi)
		}
	}
}

// TestMixedExchangeBytesBudget: the measured bytes enqueued per run under
// precision.Mixed must be at most 60% of the FP64 payload (§3.4: the
// halved insensitive words are where the communication saving comes
// from).
func TestMixedExchangeBytesBudget(t *testing.T) {
	m := sharedMesh3
	nlev := 6
	init := func(s *dycore.State) {
		s.IsothermalRest(290)
		s.AddSolidBodyWind(15)
	}
	steps, dt := 2, 60.0
	nparts := 4
	bytesOf := func(mode precision.Mode) int64 {
		tm := NewTimings()
		_, st := RunDistributedDynamicsTimed(m, nlev, nparts, mode, init, steps, dt, tm)
		if st.Rounds == 0 || st.BytesSent == 0 {
			t.Fatalf("mode %v: no exchange traffic measured", mode)
		}
		return st.BytesSent
	}
	dp := bytesOf(precision.DP)
	mixed := bytesOf(precision.Mixed)
	if ratio := float64(mixed) / float64(dp); ratio > 0.60 {
		t.Errorf("Mixed payload is %.1f%% of DP (%d vs %d bytes), want <= 60%%",
			ratio*100, mixed, dp)
	}
}

// relL2 is the paper's accuracy metric (§3.4.1): the L2 norm of the
// difference relative to the reference norm.
func relL2(a, ref []float64) float64 {
	var num, den float64
	for i := range a {
		d := a[i] - ref[i]
		num += d * d
		den += ref[i] * ref[i]
	}
	return math.Sqrt(num / den)
}

// TestMixedDistributedAccuracyGate validates the distributed mixed-
// precision path against the paper's acceptance criterion: relative L2
// errors of surface pressure and relative vorticity under 5% of the
// double-precision reference (§3.4.1, ErrorThreshold = 0.05).
func TestMixedDistributedAccuracyGate(t *testing.T) {
	m := sharedMesh3
	nlev := 6
	init := func(s *dycore.State) {
		s.IsothermalRest(295)
		s.AddThermalBubble(0.4, 1.2, 0.25, 6)
		s.AddSolidBodyWind(18)
	}
	steps, dt := 10, 90.0

	serialEng := dycore.New(m, nlev, precision.DP)
	init(serialEng.State())
	for i := 0; i < steps; i++ {
		serialEng.Step(dt)
	}
	refPs := serialEng.State().SurfacePressure()
	refVor := serialEng.VorticityAtLevel(nlev / 2)

	mixed := RunDistributedDynamics(m, nlev, 4, precision.Mixed, init, steps, dt)
	ps := mixed.SurfacePressure()
	vor := dycore.NewFromState(mixed, precision.DP).VorticityAtLevel(nlev / 2)

	if e := relL2(ps, refPs); e >= 0.05 {
		t.Errorf("surface pressure RelL2 = %g, want < 0.05", e)
	}
	if e := relL2(vor, refVor); e >= 0.05 {
		t.Errorf("vorticity RelL2 = %g, want < 0.05", e)
	}
}

// TestMeasuredCommShare: the timed driver must surface nonzero dynamics
// wall time and halo wait, and the derived share must be a sane
// fraction.
func TestMeasuredCommShare(t *testing.T) {
	m := sharedMesh3
	init := func(s *dycore.State) {
		s.IsothermalRest(290)
		s.AddSolidBodyWind(10)
	}
	tm := NewTimings()
	_, st := RunDistributedDynamicsTimed(m, 4, 3, precision.DP, init, 3, 60, tm)
	if st.Rounds == 0 {
		t.Fatal("no exchange rounds recorded")
	}
	wait, calls := tm.Get("halo_wait")
	if calls != st.Rounds || wait != st.Wait {
		t.Errorf("drained (%v, %d), stats (%v, %d)", wait, calls, st.Wait, st.Rounds)
	}
	share := MeasuredCommShare(tm)
	if share < 0 || share >= 1 {
		t.Errorf("measured comm share %g out of range", share)
	}
}
