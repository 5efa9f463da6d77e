package mlphysics

import (
	"math"
	"testing"
	"time"

	"gristgo/internal/physics"
	"gristgo/internal/precision"
)

// trainedSuite trains a small suite on the synthetic dataset, shared by
// the engine-integration tests.
func trainedSuite(t *testing.T, nlev int, seed int64) *Suite {
	t.Helper()
	samples := syntheticSamples(200, nlev, seed)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 10
	suite, _, _ := Train(samples, nil, nlev, cfg)
	return suite
}

// physInput builds a deterministic multi-column physics state.
func physInput(ncol, nlev int) *physics.Input {
	in := physics.NewInput(ncol, nlev)
	for c := 0; c < ncol; c++ {
		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			p := 22500 + float64(k)/float64(nlev-1)*75000
			in.P[i] = p
			in.Dpi[i] = 97750.0 / float64(nlev)
			in.T[i] = 295 + 2*math.Sin(float64(c)) - 55*math.Log(1e5/p)
			in.Qv[i] = 0.012 * math.Pow(p/1e5, 3) * (1 + 0.1*math.Cos(float64(i)))
			in.U[i] = 8 * math.Sin(float64(i))
			in.V[i] = 4 * math.Cos(float64(i))
		}
		in.Tskin[c] = 300 + math.Sin(float64(c))
		in.CosZ[c] = math.Max(0, math.Sin(float64(c)*0.7))
		in.Land[c] = float64(c % 2)
	}
	return in
}

// TestBatchedMatchesScalarOracle: the FP64 engine path must reproduce
// the per-column scalar path bit for bit, at any worker count.
func TestBatchedMatchesScalarOracle(t *testing.T) {
	nlev := 8
	suite := trainedSuite(t, nlev, 11)
	const ncol = 37
	in := physInput(ncol, nlev)
	tskin0 := append([]float64(nil), in.Tskin...)

	ref := physics.NewOutput(ncol, nlev)
	suite.SetScalarOracle(true)
	suite.Compute(in, ref, 600)

	for _, workers := range []int{1, 3} {
		copy(in.Tskin, tskin0) // surface slab advanced Tskin; rewind
		got := physics.NewOutput(ncol, nlev)
		suite.SetScalarOracle(false)
		suite.SetWorkers(workers)
		suite.Compute(in, got, 600)
		for i := range ref.Q1 {
			if got.Q1[i] != ref.Q1[i] || got.Q2[i] != ref.Q2[i] {
				t.Fatalf("workers=%d: tendency diverges from oracle at %d", workers, i)
			}
		}
		for c := range ref.Gsw {
			if got.Gsw[c] != ref.Gsw[c] || got.Glw[c] != ref.Glw[c] || got.Precip[c] != ref.Precip[c] {
				t.Fatalf("workers=%d: radiation diverges from oracle at col %d", workers, c)
			}
		}
	}
}

// TestFP32SuiteWithinThreshold validates the quantized plan the same way
// the mixed-precision dycore is validated: relative-L2 of Q1/Q2/gsw/glw
// against the FP64 reference under the 5% threshold — and checks it is a
// genuinely different computation.
func TestFP32SuiteWithinThreshold(t *testing.T) {
	nlev := 8
	suite := trainedSuite(t, nlev, 13)
	const ncol = 40
	in := physInput(ncol, nlev)
	tskin0 := append([]float64(nil), in.Tskin...)

	o64 := physics.NewOutput(ncol, nlev)
	suite.Compute(in, o64, 600)

	copy(in.Tskin, tskin0)
	o32 := physics.NewOutput(ncol, nlev)
	suite.SetPrecision(precision.Mixed)
	suite.Compute(in, o32, 600)
	suite.SetPrecision(precision.DP)

	for _, f := range []struct {
		name    string
		lo, ref []float64
	}{
		{"Q1", o32.Q1, o64.Q1},
		{"Q2", o32.Q2, o64.Q2},
		{"gsw", o32.Gsw, o64.Gsw},
		{"glw", o32.Glw, o64.Glw},
	} {
		if dev := precision.RelL2(f.lo, f.ref); dev > precision.ErrorThreshold {
			t.Errorf("FP32 %s deviates %g > %g", f.name, dev, precision.ErrorThreshold)
		}
	}
	identical := true
	for i := range o64.Q1 {
		if o32.Q1[i] != o64.Q1[i] {
			identical = false
			break
		}
	}
	if identical {
		t.Error("FP32 suite output bitwise equals FP64 — quantized plan not in use")
	}
}

// TestOracleInputPathAllocationFree: the satellite fix — the reference
// path's input assembly and normalizer apply/invert must not allocate in
// steady state.
func TestOracleInputPathAllocationFree(t *testing.T) {
	nlev := 8
	suite := trainedSuite(t, nlev, 17)
	in := physInput(4, nlev)
	suite.orc.ensure(nlev)
	allocs := testing.AllocsPerRun(50, func() {
		for c := 0; c < 4; c++ {
			tendencyInputInto(suite.orc.tendIn, in, c, nlev)
			suite.TendIn.ApplyInto(suite.orc.tendZ, suite.orc.tendIn)
			radiationInputInto(suite.orc.radIn, in, c, nlev)
			suite.RadIn.ApplyInto(suite.orc.radZ, suite.orc.radIn)
			suite.TendOut.InvertInto(suite.orc.pred, suite.orc.tendZ[:TendencyOutputs*nlev])
		}
	})
	if allocs != 0 {
		t.Errorf("oracle input path allocates %v per run, want 0", allocs)
	}
}

// TestBatchedSteadyStateAllocationFree: after warmup, the batched path's
// matrix fill and engine execution should allocate at most incidentally
// (pool churn), far below one slice per column.
func TestBatchedSteadyStateAllocationFree(t *testing.T) {
	nlev := 8
	suite := trainedSuite(t, nlev, 19)
	const ncol = 64
	in := physInput(ncol, nlev)
	out := physics.NewOutput(ncol, nlev)
	suite.SetWorkers(1)
	suite.Compute(in, out, 600) // warmup: compiles plans, sizes matrices
	allocs := testing.AllocsPerRun(20, func() {
		suite.Compute(in, out, 600)
	})
	// The surface scheme constructor and pool churn allow a few small
	// allocations; the per-column garbage of the old path (hundreds of
	// slices per call) must be gone.
	if allocs > 20 {
		t.Errorf("batched Compute allocates %v per run", allocs)
	}
}

// TestDrainTimings: engines accumulate call counts and wall time, and
// draining resets them.
func TestDrainTimings(t *testing.T) {
	nlev := 6
	suite := trainedSuite(t, nlev, 23)
	in := physInput(8, nlev)
	out := physics.NewOutput(8, nlev)
	suite.Compute(in, out, 600)
	suite.Compute(in, out, 600)

	got := map[string]int{}
	var elapsed time.Duration
	suite.DrainTimings(func(name string, d time.Duration, calls int) {
		got[name] += calls
		elapsed += d
	})
	if got["ml_tendency_infer"] != 2 || got["ml_radiation_infer"] != 2 {
		t.Errorf("timings = %v, want 2 calls each", got)
	}
	if elapsed <= 0 {
		t.Error("no elapsed time recorded")
	}
	suite.DrainTimings(func(name string, d time.Duration, calls int) {
		t.Errorf("drain did not reset: %s has %d calls", name, calls)
	})

	// The scalar oracle bypasses the engines entirely.
	suite.SetScalarOracle(true)
	suite.Compute(in, out, 600)
	suite.DrainTimings(func(name string, d time.Duration, calls int) {
		t.Errorf("scalar path recorded engine timing %s", name)
	})
}
