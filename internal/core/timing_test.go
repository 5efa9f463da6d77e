package core

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"gristgo/internal/mesh"
	"gristgo/internal/physics"
	"gristgo/internal/precision"
	"gristgo/internal/synthclim"
	"gristgo/internal/telemetry"
	"gristgo/internal/tracer"
)

// timedScheme is a stub physics scheme with its own component timers, as
// the ML suite's inference engines keep.
type timedScheme struct {
	nlev    int
	workers int
	drained int
}

func (s *timedScheme) Name() string { return "stub timed" }

func (s *timedScheme) Compute(in *physics.Input, out *physics.Output, dt float64) {
	out.Reset()
}

func (s *timedScheme) SetWorkers(n int) { s.workers = n }

func (s *timedScheme) DrainTimings(emit func(name string, d time.Duration, calls int)) {
	s.drained++
	emit("stub_infer", 3*time.Millisecond, 2)
}

// TestStepPhysicsTimedDrainsComponentTimers: schemes implementing
// ComponentTimer get their counters folded into the step's Timings.
func TestStepPhysicsTimedDrainsComponentTimers(t *testing.T) {
	sch := &timedScheme{nlev: 4}
	cfg := Config{GridLevel: 3, NLev: 4, Mode: precision.DP}
	mod := NewModelOnMesh(cfg, sch, sharedMesh3)
	mod.InitializeClimate(synthclim.ForPeriod(synthclim.Table1()[2], 0))

	tm := NewTimings()
	mod.StepPhysicsTimed(0, tm)
	if sch.drained != 1 {
		t.Fatalf("DrainTimings called %d times, want 1", sch.drained)
	}
	d, calls := tm.Get("stub_infer")
	if d != 3*time.Millisecond || calls != 2 {
		t.Errorf("stub_infer = (%v, %d), want (3ms, 2)", d, calls)
	}
	if !strings.Contains(tm.Report(), "stub_infer") {
		t.Error("report omits drained component")
	}
}

// TestHostWorkersReachScheme: core.Config.HostWorkers must propagate to
// physics schemes carrying their own worker pool.
func TestHostWorkersReachScheme(t *testing.T) {
	sch := &timedScheme{nlev: 4}
	cfg := Config{GridLevel: 3, NLev: 4, Mode: precision.DP, HostWorkers: 4}
	NewModelOnMesh(cfg, sch, sharedMesh3)
	if sch.workers != 4 {
		t.Errorf("scheme workers = %d, want 4", sch.workers)
	}
}

// TestAddCalls: the multi-invocation accumulator sums like repeated Add.
func TestAddCalls(t *testing.T) {
	tm := NewTimings()
	tm.AddCalls("x", 5*time.Millisecond, 3)
	tm.AddCalls("x", time.Millisecond, 1)
	d, calls := tm.Get("x")
	if d != 6*time.Millisecond || calls != 4 {
		t.Errorf("got (%v, %d), want (6ms, 4)", d, calls)
	}
}

// TestTimingsConcurrent: distributed runs drain per-rank stats into one
// accumulator from many goroutines; Timings must be race-free under
// concurrent Add/AddCalls/Get/Report (exercised by make race).
func TestTimingsConcurrent(t *testing.T) {
	tm := NewTimings()
	var wg sync.WaitGroup
	const workers, iters = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tm.Add("shared", time.Microsecond)
				tm.AddCalls("halo_wait", time.Microsecond, 2)
				tm.Get("shared")
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { // concurrent reader
		defer close(done)
		for i := 0; i < 20; i++ {
			tm.Report()
			tm.Total()
		}
	}()
	wg.Wait()
	<-done
	if d, calls := tm.Get("shared"); d != workers*iters*time.Microsecond || calls != workers*iters {
		t.Errorf("shared = (%v, %d), want (%v, %d)", d, calls, workers*iters*time.Microsecond, workers*iters)
	}
	if _, calls := tm.Get("halo_wait"); calls != 2*workers*iters {
		t.Errorf("halo_wait calls = %d, want %d", calls, 2*workers*iters)
	}
}

// TestTimingsRegistryView: Timings is a view over a telemetry registry —
// the component counters must be visible as metrics.
func TestTimingsRegistryView(t *testing.T) {
	reg := telemetry.NewRegistry()
	tm := NewTimingsOn(reg)
	tm.Add("dynamics", 2*time.Millisecond)
	if tm.Registry() != reg {
		t.Fatal("Registry() does not return the backing registry")
	}
	if v := reg.Counter("grist_component_time_ns_total", "component", "dynamics").Value(); v != int64(2*time.Millisecond) {
		t.Errorf("time counter = %d ns, want %d", v, int64(2*time.Millisecond))
	}
	if v := reg.Counter("grist_component_calls_total", "component", "dynamics").Value(); v != 1 {
		t.Errorf("calls counter = %d, want 1", v)
	}
}

// TestModelHostWorkersBitwise: HostWorkers only schedules the dycore and
// tracer loops, so a coupled model with conventional physics over terrain
// ends two physics steps bitwise equal at 1 and 2 workers — every State
// array and every tracer array, in both precision modes.
func TestModelHostWorkersBitwise(t *testing.T) {
	const nlev = 6
	cl := synthclim.ForPeriod(synthclim.Table1()[1], 0)
	m := mesh.New(2).ReorderBFS()
	for _, mode := range []precision.Mode{precision.DP, precision.Mixed} {
		run := func(workers int) *Model {
			mod := NewModelOnMesh(Config{GridLevel: 2, NLev: nlev, Mode: mode, HostWorkers: workers},
				physics.NewConventional(nlev), m)
			mod.InitializeClimate(cl)
			mod.SetTerrain(synthclim.Terrain)
			for range 2 {
				mod.StepPhysics(cl.Season)
			}
			return mod
		}
		serial, parallel := run(1), run(2)
		a, b := serial.Engine.State(), parallel.Engine.State()
		fields := map[string][2][]float64{
			"DryMass": {a.DryMass, b.DryMass}, "ThetaM": {a.ThetaM, b.ThetaM}, "U": {a.U, b.U},
			"W": {a.W, b.W}, "Phi": {a.Phi, b.Phi}, "PhiSurf": {a.PhiSurf, b.PhiSurf},
			"TracMass": {serial.Tracers.Mass, parallel.Tracers.Mass},
		}
		for sp := tracer.QV; sp < tracer.NumSpecies; sp++ {
			fields[sp.String()] = [2][]float64{serial.Tracers.Q[sp], parallel.Tracers.Q[sp]}
		}
		for name, f := range fields {
			for i := range f[0] {
				if math.Float64bits(f[0][i]) != math.Float64bits(f[1][i]) {
					t.Fatalf("%s: %s[%d]: %v at 1 worker, %v at 2", mode, name, i, f[0][i], f[1][i])
				}
			}
		}
	}
}
