package infer

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"gristgo/internal/nn"
	"gristgo/internal/precision"
	"gristgo/internal/telemetry"
)

// randSpec builds a normalizer spec with nonzero stds and a sprinkle of
// dead features, as mlphysics produces.
func randSpec(dim int, rng *rand.Rand) *NormSpec {
	s := &NormSpec{
		Mean: make([]float64, dim),
		Std:  make([]float64, dim),
		Dead: make([]bool, dim),
	}
	for i := 0; i < dim; i++ {
		s.Mean[i] = rng.NormFloat64()
		s.Std[i] = 0.2 + rng.Float64()
		if rng.Intn(8) == 0 {
			s.Dead[i] = true
			s.Std[i] = 1
		}
	}
	return s
}

// scalarReference reproduces the oracle path for one column: normalizer
// apply with the ±clip envelope, nn.Module.Forward, the raw-output
// clamp, and the normalizer inversion — exactly what
// mlphysics.Suite.Compute does per column.
func scalarReference(m nn.Module, opt Options, x []float64) []float64 {
	z := append([]float64(nil), x...)
	if opt.In != nil {
		for i, v := range x {
			if opt.In.Dead[i] {
				z[i] = 0
				continue
			}
			zi := (v - opt.In.Mean[i]) / opt.In.Std[i]
			if opt.InClip > 0 {
				if zi > opt.InClip {
					zi = opt.InClip
				} else if zi < -opt.InClip {
					zi = -opt.InClip
				}
			}
			z[i] = zi
		}
	}
	raw := m.Forward(z)
	out := make([]float64, len(raw))
	for i, v := range raw {
		if opt.OutClamp > 0 {
			if v > opt.OutClamp {
				v = opt.OutClamp
			} else if v < -opt.OutClamp {
				v = -opt.OutClamp
			}
		}
		if opt.Out != nil {
			if opt.Out.Dead[i] {
				out[i] = opt.Out.Mean[i]
				continue
			}
			v = v*opt.Out.Std[i] + opt.Out.Mean[i]
		}
		out[i] = v
	}
	return out
}

// checkBitwise runs ncol random columns through the engine (with the
// given worker count) and demands bit-identical agreement with the
// scalar reference on every output.
func checkBitwise(t *testing.T, m nn.Module, opt Options, inDim int, ncol, workers int, rng *rand.Rand) bool {
	t.Helper()
	plan, err := Compile[float64](m, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	eng := NewEngine(plan, workers)
	src := make([]float64, ncol*plan.InDim)
	for i := range src {
		src[i] = 3 * rng.NormFloat64()
	}
	dst := make([]float64, ncol*plan.OutDim)
	eng.Forward(dst, src, ncol)
	for c := 0; c < ncol; c++ {
		want := scalarReference(m, opt, src[c*plan.InDim:(c+1)*plan.InDim])
		got := dst[c*plan.OutDim : (c+1)*plan.OutDim]
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("col %d out %d: engine %v != scalar %v", c, i, got[i], want[i])
				return false
			}
		}
	}
	return true
}

// TestFP64PlanBitwiseParityCNN: property-based check that the FP64 plan
// reproduces nn.Forward bit-for-bit on random ResUnit-CNN configs.
func TestFP64PlanBitwiseParityCNN(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inCh := 1 + rng.Intn(4)
		hidden := 1 + rng.Intn(9)
		outCh := 1 + rng.Intn(3)
		levels := 1 + rng.Intn(14)
		units := rng.Intn(3)
		kernel := 1 + 2*rng.Intn(3)
		m := nn.NewResUnitCNN(inCh, hidden, outCh, levels, units, kernel, rng)
		// Random biases: the init zeroes them, which under-exercises the
		// bias-first accumulation order.
		for _, p := range m.Params() {
			for i := range p.W {
				if p.W[i] == 0 {
					p.W[i] = 0.1 * rng.NormFloat64()
				}
			}
		}
		opt := Options{
			In: randSpec(inCh*levels, rng), InClip: 5,
			Out: randSpec(outCh*levels, rng), OutClamp: 6,
		}
		return checkBitwise(t, m, opt, inCh*levels, 1+rng.Intn(40), 1+rng.Intn(4), rng)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestFP64PlanBitwiseParityMLP: same property for random residual MLPs,
// without fused normalizers on some runs.
func TestFP64PlanBitwiseParityMLP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := 1 + rng.Intn(12)
		hidden := 1 + rng.Intn(24)
		out := 1 + rng.Intn(4)
		layers := 3 + rng.Intn(5)
		m := nn.NewResMLP(in, hidden, out, layers, rng)
		for _, p := range m.Params() {
			for i := range p.W {
				if p.W[i] == 0 {
					p.W[i] = 0.1 * rng.NormFloat64()
				}
			}
		}
		var opt Options
		if rng.Intn(2) == 0 {
			opt = Options{In: randSpec(in, rng), InClip: 5, Out: randSpec(out, rng)}
		}
		return checkBitwise(t, m, opt, in, 1+rng.Intn(50), 1+rng.Intn(5), rng)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestFP32PlanCloseToFP64 quantizes a network to FP32 and checks the
// relative-L2 deviation from the FP64 plan stays far inside the 5%
// dycore acceptance threshold on smooth random inputs.
func TestFP32PlanCloseToFP64(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := nn.NewResUnitCNN(3, 8, 2, 12, 3, 3, rng)
	opt := Options{In: randSpec(36, rng), InClip: 5, Out: randSpec(24, rng), OutClamp: 6}
	p64 := MustCompile[float64](m, opt)
	p32 := MustCompile[float32](m, opt)
	e64 := NewEngine(p64, 1)
	e32 := NewEngine(p32, 2)
	const ncol = 64
	src := make([]float64, ncol*p64.InDim)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	d64 := make([]float64, ncol*p64.OutDim)
	d32 := make([]float64, ncol*p64.OutDim)
	e64.Forward(d64, src, ncol)
	e32.Forward(d32, src, ncol)
	if dev := precision.RelL2(d32, d64); dev > precision.ErrorThreshold {
		t.Errorf("FP32 plan deviates %g > %g", dev, precision.ErrorThreshold)
	}
	// And it must actually be a different (quantized) computation.
	same := true
	for i := range d64 {
		if d32[i] != d64[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("FP32 plan is bitwise identical to FP64 — quantization not happening")
	}
}

// TestFP32WinogradPlanCloseToFP64: property-based check of the FP32
// plan's Winograd convolutions on random ResUnit-CNN configs — channel
// counts off multiples of four, columns shorter than one tile or ending
// in a partial tile, kernel sizes mixing Winograd and im2col stages,
// partial blocks and several workers. Every K = 3 stage of the FP32 plan
// must carry the filter transform (no stage of the FP64 plan may), and
// the FP32 outputs must stay within 1e-4 relative L2 of the FP64 plan's,
// which a wrong transform coefficient breaks by orders of magnitude.
func TestFP32WinogradPlanCloseToFP64(t *testing.T) {
	worst := 0.0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inCh := 1 + rng.Intn(4)
		hidden := 1 + rng.Intn(9)
		outCh := 1 + rng.Intn(3)
		levels := 1 + rng.Intn(14)
		kernel := 1 + 2*rng.Intn(3)
		m := nn.NewResUnitCNN(inCh, hidden, outCh, levels, rng.Intn(3), kernel, rng)
		for _, p := range m.Params() {
			for i := range p.W {
				if p.W[i] == 0 {
					p.W[i] = 0.1 * rng.NormFloat64()
				}
			}
		}
		opt := Options{In: randSpec(inCh*levels, rng), InClip: 5}
		p64, p32 := MustCompile[float64](m, opt), MustCompile[float32](m, opt)
		for si, st := range p32.stages {
			if st.kind == opConv && (st.k == 3) != (st.wino != nil) {
				t.Errorf("FP32 stage %d (K = %d): Winograd transform present = %v", si, st.k, st.wino != nil)
				return false
			}
			if p64.stages[si].wino != nil {
				t.Errorf("FP64 stage %d carries a Winograd transform", si)
				return false
			}
		}
		ncol := 1 + rng.Intn(40)
		src := make([]float64, ncol*p64.InDim)
		for i := range src {
			src[i] = 3 * rng.NormFloat64()
		}
		d64 := make([]float64, ncol*p64.OutDim)
		d32 := make([]float64, ncol*p64.OutDim)
		NewEngine(p64, 1+rng.Intn(4)).Forward(d64, src, ncol)
		NewEngine(p32, 1+rng.Intn(4)).Forward(d32, src, ncol)
		dev := precision.RelL2(d32, d64)
		worst = math.Max(worst, dev)
		if !(dev <= 1e-4) {
			t.Errorf("seed %d: FP32 plan deviates %g relative L2 (inCh %d, hidden %d, out %d, L %d, K %d, %d columns)",
				seed, dev, inCh, hidden, outCh, levels, kernel, ncol)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	t.Logf("largest relative L2: %.3g", worst)
}

// TestReLUMatchesBranch: the bit-select ReLU gives +0 for everything
// that is not strictly positive — both zeros, NaNs of either sign, -Inf,
// negative subnormals — and keeps every positive value, +Inf and the
// smallest subnormal included, in both precisions.
func TestReLUMatchesBranch(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, 1.5e-45, -1.5e-45, math.MaxFloat64, -math.MaxFloat64, 1, -1, 3.25, -0.5}
	want := func(v float64) float64 {
		if !(v > 0) {
			return 0
		}
		return v
	}
	x64 := append([]float64(nil), xs...)
	relu(x64)
	x32 := toT[float32](xs)
	relu(x32)
	for i, v := range xs {
		if math.Float64bits(x64[i]) != math.Float64bits(want(v)) {
			t.Errorf("float64 relu(%v) = %v, want %v", v, x64[i], want(v))
		}
		v32 := float32(v)
		if w := float32(want(float64(v32))); math.Float32bits(x32[i]) != math.Float32bits(w) {
			t.Errorf("float32 relu(%v) = %v, want %v", v32, x32[i], w)
		}
	}
}

// TestConcurrentForwardRaceClean drives one engine from many goroutines
// with internal worker sharding enabled; run under -race this validates
// the arena pool and stats locking.
func TestConcurrentForwardRaceClean(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := nn.NewResUnitCNN(2, 6, 2, 10, 2, 3, rng)
	opt := Options{In: randSpec(20, rng), InClip: 5, Out: randSpec(20, rng), OutClamp: 6}
	eng := NewEngine(MustCompile[float64](m, opt), 4)
	const ncol = 50
	src := make([]float64, ncol*eng.Plan().InDim)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	ref := make([]float64, ncol*eng.Plan().OutDim)
	eng.Forward(ref, src, ncol)

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, ncol*eng.Plan().OutDim)
			for it := 0; it < 5; it++ {
				eng.Forward(dst, src, ncol)
			}
			for i := range ref {
				if dst[i] != ref[i] {
					t.Errorf("concurrent run diverged at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := eng.DrainStats()
	if st.Calls != 31 || st.Columns != 31*ncol {
		t.Errorf("stats = %+v, want 31 calls / %d columns", st, 31*ncol)
	}
	if st.Elapsed <= 0 {
		t.Error("no elapsed time recorded")
	}
	if again := eng.DrainStats(); again.Calls != 0 {
		t.Errorf("drain did not reset: %+v", again)
	}
}

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

// arenaSink keeps checkForwardAllocFree's measured arena on the heap.
var arenaSink any

// checkForwardAllocFree fails t when a warm single-worker Forward of
// ncol columns through p allocates. Under -race the budget is one arena:
// the race detector drops sync.Pool items at random, so a call may
// rebuild it.
func checkForwardAllocFree[T precision.Real](t *testing.T, name string, p *Plan[T], ncol int) {
	t.Helper()
	eng := NewEngine(p, 1)
	src := make([]float64, ncol*p.InDim)
	for i := range src {
		src[i] = float64(i%7) - 3
	}
	dst := make([]float64, ncol*p.OutDim)
	eng.Forward(dst, src, ncol) // warm up: the arena pool fills on first use
	budget := 0.0
	if raceEnabled {
		budget = testing.AllocsPerRun(1, func() { arenaSink = newArena(p) })
	}
	if allocs := testing.AllocsPerRun(20, func() { eng.Forward(dst, src, ncol) }); allocs > budget {
		t.Errorf("%s Forward allocates %.1f times per call; the budget is %.0f", name, allocs, budget)
	}
}

// TestForwardAllocFree: a warm Forward runs out of its pooled arena, on
// the FP64 and on the FP32 plan.
func TestForwardAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := nn.NewResUnitCNN(3, 8, 2, 12, 2, 3, rng)
	opt := Options{In: randSpec(36, rng), InClip: 5, Out: randSpec(24, rng), OutClamp: 6}
	checkForwardAllocFree(t, "FP64", MustCompile[float64](m, opt), 40)
	checkForwardAllocFree(t, "FP32", MustCompile[float32](m, opt), 40)
}

// TestCompileRejectsUnsupported covers the compile-time error paths.
func TestCompileRejectsUnsupported(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if _, err := Compile[float64](&nn.Sequential{Layers: []nn.Module{&nn.ReLU{}}}, Options{}); err == nil {
		t.Error("ReLU-first plan accepted without a width")
	}
	type alien struct{ nn.Module }
	if _, err := Compile[float64](&nn.Sequential{Layers: []nn.Module{alien{}}}, Options{}); err == nil {
		t.Error("unsupported module accepted")
	}
	// Width mismatch between normalizer and first layer.
	d := nn.NewDense(4, 2, rng)
	if _, err := Compile[float64](&nn.Sequential{Layers: []nn.Module{d}},
		Options{In: randSpec(5, rng)}); err == nil {
		t.Error("input-normalizer width mismatch accepted")
	}
	if _, err := Compile[float64](&nn.Sequential{Layers: []nn.Module{d}},
		Options{Out: randSpec(5, rng)}); err == nil {
		t.Error("output-normalizer width mismatch accepted")
	}
	// Residual whose body changes width.
	bad := &nn.Sequential{Layers: []nn.Module{
		nn.NewDense(4, 4, rng),
		&nn.Residual{Body: nn.NewDense(4, 3, rng)},
	}}
	if _, err := Compile[float64](bad, Options{}); err == nil {
		t.Error("width-changing residual body accepted")
	}
}

// TestForwardValidatesShapes covers the runtime panics.
func TestForwardValidatesShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	eng := NewEngine(MustCompile[float64](nn.NewDense(3, 2, rng), Options{}), 1)
	defer func() {
		if recover() == nil {
			t.Error("short src accepted")
		}
	}()
	eng.Forward(make([]float64, 4), make([]float64, 5), 2)
}

// TestEmptyBatchIsNoop: ncol = 0 must not touch buffers or stats' column
// count.
func TestEmptyBatchIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	eng := NewEngine(MustCompile[float64](nn.NewDense(3, 2, rng), Options{}), 2)
	eng.Forward(nil, nil, 0)
	if st := eng.DrainStats(); st.Calls != 0 || st.Columns != 0 {
		t.Errorf("empty batch recorded stats: %+v", st)
	}
}

// TestQuantizationError sanity-checks toT rounding behaviour.
func TestQuantizationError(t *testing.T) {
	xs := []float64{1.0000000001, math.Pi, -2.5}
	q := toT[float32](xs)
	for i, x := range xs {
		if math.Abs(float64(q[i])-x) > 1e-6*math.Abs(x) {
			t.Errorf("quantized %v -> %v", x, q[i])
		}
	}
	exact := toT[float64](xs)
	for i, x := range xs {
		if exact[i] != x {
			t.Errorf("float64 copy changed %v", x)
		}
	}
}

// TestEngineTelemetry: a wired engine must emit one infer_forward span
// per Forward, count columns/calls under its model label, and report the
// batch occupancy of the last call (ncol over the padded block columns).
func TestEngineTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := nn.NewResMLP(6, 8, 4, 3, rng)
	eng := NewEngine(MustCompile[float64](m, Options{}), 2)
	rec := telemetry.NewRecorder(64)
	reg := telemetry.NewRegistry()
	eng.SetTelemetry(rec, reg, "tendency")

	const ncol = blockCols + 3 // forces one partially filled block
	src := make([]float64, ncol*6)
	dst := make([]float64, ncol*4)
	eng.Forward(dst, src, ncol)
	eng.Forward(dst, src, ncol)

	spans := 0
	for _, ev := range rec.Snapshot() {
		if ev.Name == "infer_forward" {
			spans++
		}
	}
	if spans != 2 {
		t.Errorf("infer_forward spans = %d, want 2", spans)
	}
	if got := reg.Counter("grist_infer_calls_total", "model", "tendency").Value(); got != 2 {
		t.Errorf("calls counter = %d, want 2", got)
	}
	if got := reg.Counter("grist_infer_columns_total", "model", "tendency").Value(); got != 2*ncol {
		t.Errorf("columns counter = %d, want %d", got, 2*ncol)
	}
	want := float64(ncol) / float64(2*blockCols)
	if got := reg.Gauge("grist_infer_batch_occupancy", "model", "tendency").Value(); math.Abs(got-want) > 1e-12 {
		t.Errorf("occupancy = %v, want %v", got, want)
	}
}
