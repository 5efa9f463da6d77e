package core

import (
	"math"
	"testing"

	"gristgo/internal/diag"
	"gristgo/internal/dycore"
	"gristgo/internal/physics"
	"gristgo/internal/precision"
	"gristgo/internal/synthclim"
	"gristgo/internal/telemetry"
)

// spanNames collects the set of span names present in a recorder.
func spanNames(rec *telemetry.Recorder) map[string]int {
	out := map[string]int{}
	for _, ev := range rec.Snapshot() {
		out[ev.Name]++
	}
	return out
}

func TestEnableTelemetryStepMetricsAndSpans(t *testing.T) {
	mod := newTestModel(t, 8, precision.DP)
	mod.Cfg.Steps = scaledSteps(3)
	cl := synthclim.ForPeriod(synthclim.Table1()[2], 0)
	mod.InitializeClimate(cl)
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(1 << 12)
	var trips []diag.HealthEvent
	mod.EnableTelemetry(reg, rec, func(ev diag.HealthEvent) { trips = append(trips, ev) })

	const steps = 3
	for i := 0; i < steps; i++ {
		mod.StepPhysics(cl.Season)
	}

	if got := reg.Counter("grist_physics_steps_total").Value(); got != steps {
		t.Errorf("grist_physics_steps_total = %d, want %d", got, steps)
	}
	if sypd := reg.Gauge("grist_sypd").Value(); sypd <= 0 {
		t.Errorf("grist_sypd = %v, want > 0", sypd)
	}
	if sim := reg.Gauge("grist_sim_seconds").Value(); sim <= 0 {
		t.Errorf("grist_sim_seconds = %v, want > 0", sim)
	}
	if n := reg.Histogram("grist_step_latency_seconds").Count(); n != steps {
		t.Errorf("step latency count = %d, want %d", n, steps)
	}

	names := spanNames(rec)
	for _, want := range []string{"physics_step", "dyn_step", "interior", "tracer_step"} {
		if names[want] == 0 {
			t.Errorf("no %q spans recorded (got %v)", want, names)
		}
	}
	// A stable idealized run must not trip any sentinel.
	if len(trips) != 0 {
		t.Errorf("unexpected sentinel trips on clean run: %+v", trips)
	}
	// Step attribution: the last recorded physics_step carries the final
	// step index.
	var lastStep int64
	for _, ev := range rec.Snapshot() {
		if ev.Name == "physics_step" && ev.Step > lastStep {
			lastStep = ev.Step
		}
	}
	if lastStep != steps {
		t.Errorf("last physics_step attributed to step %d, want %d", lastStep, steps)
	}
}

func TestEnableTelemetryTimedPath(t *testing.T) {
	mod := newTestModel(t, 8, precision.DP)
	mod.Cfg.Steps = scaledSteps(3)
	cl := synthclim.ForPeriod(synthclim.Table1()[2], 0)
	mod.InitializeClimate(cl)
	reg := telemetry.NewRegistry()
	tm := NewTimingsOn(reg)
	mod.EnableTelemetry(reg, nil, nil)
	mod.StepPhysicsTimed(cl.Season, tm)
	if got := reg.Counter("grist_physics_steps_total").Value(); got != 1 {
		t.Errorf("grist_physics_steps_total = %d, want 1 after StepPhysicsTimed", got)
	}
	if d, _ := tm.Get("dynamics"); d <= 0 {
		t.Error("timed path lost component attribution")
	}
}

func TestRunDistributedDynamicsObserved(t *testing.T) {
	const nlev, nparts, steps = 4, 4, 2
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(1 << 14)
	init := func(s *dycore.State) {
		s.IsothermalRest(290)
		s.AddSolidBodyWind(15)
	}

	_, rep, err := Run(RunSpec{
		Mesh: sharedMesh3, NLev: nlev, NParts: nparts, Mode: precision.DP, Init: init, Steps: steps, Dt: 60.0,
		Recs: []*telemetry.Recorder{rec, rec, rec, rec}, Reg: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Exchange

	if st.Rounds == 0 || st.BytesSent == 0 {
		t.Fatalf("no exchange traffic recorded: %+v", st)
	}
	share := reg.Gauge("grist_comm_share").Value()
	if share <= 0 || share >= 1 {
		t.Errorf("grist_comm_share = %v, want in (0,1)", share)
	}
	if li := reg.Gauge("grist_load_imbalance").Value(); li < 1 {
		t.Errorf("grist_load_imbalance = %v, want >= 1", li)
	}
	if bps := reg.Gauge("grist_halo_bytes_per_step").Value(); bps != float64(st.BytesSent)/steps {
		t.Errorf("grist_halo_bytes_per_step = %v, want %v", bps, float64(st.BytesSent)/steps)
	}

	// Spans must be attributed across all ranks.
	ranks := map[int32]bool{}
	names := map[string]int{}
	for _, ev := range rec.Snapshot() {
		ranks[ev.Rank] = true
		names[ev.Name]++
	}
	if len(ranks) != nparts {
		t.Errorf("spans from %d ranks, want %d", len(ranks), nparts)
	}
	for _, want := range []string{"dyn_step", "halo_pack", "halo_wait", "halo_unpack"} {
		if names[want] == 0 {
			t.Errorf("no %q spans in distributed run (got %v)", want, names)
		}
	}
}

// degradeStub is a physics scheme that records DegradeFor calls, so the
// sentinel→degradation wiring can be tested without training a suite.
type degradeStub struct {
	physics.Null
	benched []int
}

func (d *degradeStub) DegradeFor(n int) { d.benched = append(d.benched, n) }

// TestSentinelTripDegradesPhysics: a health-sentinel trip must bench a
// Degradable physics suite for the following step; clean steps must not.
func TestSentinelTripDegradesPhysics(t *testing.T) {
	stub := &degradeStub{}
	mod := NewModelOnMesh(Config{GridLevel: 3, NLev: 6}, stub, sharedMesh3)
	cl := synthclim.ForPeriod(synthclim.Table1()[2], 0)
	mod.InitializeClimate(cl)
	reg := telemetry.NewRegistry()
	mod.EnableTelemetry(reg, nil, nil)

	mod.StepPhysics(cl.Season)
	if len(stub.benched) != 0 {
		t.Fatalf("clean step degraded physics: %v", stub.benched)
	}

	mod.Engine.State().W[0] = math.NaN()
	mod.StepPhysics(cl.Season)
	if len(stub.benched) != 1 || stub.benched[0] != 1 {
		t.Fatalf("sentinel trip did not bench physics for one step: %v", stub.benched)
	}
	if mod.tel.Health.TotalTrips() == 0 {
		t.Fatal("no sentinel trip recorded despite NaN in state")
	}
}
