package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gristgo/internal/core"
	"gristgo/internal/dycore"
	"gristgo/internal/mesh"
	"gristgo/internal/physics"
	"gristgo/internal/precision"
	"gristgo/internal/synthclim"
	"gristgo/internal/telemetry"
)

// TelemetryBenchConfig drives the observability benchmark: a short fully
// instrumented coupled run (spans, metrics, sentinels all on) to measure
// step latency under telemetry, plus a distributed dynamics leg for the
// measured communication share and load-imbalance gauges.
type TelemetryBenchConfig struct {
	GridLevel int
	NLev      int
	Steps     int // physics steps of the instrumented coupled run
	DistParts int // ranks of the distributed dynamics leg
	DistSteps int // dynamics steps of the distributed leg
}

// DefaultTelemetryBenchConfig returns the reproduction-scale setup.
func DefaultTelemetryBenchConfig() TelemetryBenchConfig {
	return TelemetryBenchConfig{GridLevel: 3, NLev: 8, Steps: 8, DistParts: 4, DistSteps: 4}
}

// TelemetryBenchResult is the JSON payload of BENCH_telemetry.json.
type TelemetryBenchResult struct {
	Steps            int     `json:"steps"`
	StepLatencyP50   float64 `json:"step_latency_p50_s"`
	StepLatencyP90   float64 `json:"step_latency_p90_s"`
	StepLatencyP99   float64 `json:"step_latency_p99_s"`
	StepLatencyMean  float64 `json:"step_latency_mean_s"`
	SYPD             float64 `json:"sypd"`
	CommShare        float64 `json:"comm_share"`
	LoadImbalance    float64 `json:"load_imbalance"`
	HaloBytesPerStep float64 `json:"halo_bytes_per_step"`
	Spans            int     `json:"spans_recorded"`
	SpansDropped     uint64  `json:"spans_dropped"`
	SentinelTrips    int     `json:"sentinel_trips"`
}

// RunTelemetryBench runs the two instrumented legs and returns the
// distilled result plus the recorder (so callers can export the trace).
func RunTelemetryBench(cfg TelemetryBenchConfig) (TelemetryBenchResult, *telemetry.Recorder) {
	m := mesh.New(cfg.GridLevel).ReorderBFS()
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(1 << 16)
	tm := core.NewTimingsOn(reg)

	// Leg 1: coupled model with the full observability plane attached.
	mod := core.NewModelOnMesh(core.Config{GridLevel: cfg.GridLevel, NLev: cfg.NLev, Mode: precision.Mixed},
		physics.NewConventional(cfg.NLev), m)
	cl := synthclim.ForPeriod(synthclim.Table1()[2], 0)
	mod.InitializeClimate(cl)
	tel := mod.EnableTelemetry(reg, rec, nil)
	for i := 0; i < cfg.Steps; i++ {
		mod.StepPhysicsTimed(cl.Season, tm)
	}

	// Leg 2: distributed dynamics for the comm-share and imbalance gauges.
	init := func(s *dycore.State) {
		s.IsothermalRest(290)
		s.AddSolidBodyWind(15)
	}
	recs := make([]*telemetry.Recorder, cfg.DistParts)
	for p := range recs {
		recs[p] = rec // one shared ring
	}
	_, dist := core.MustRun(core.RunSpec{
		Mesh: m, NLev: cfg.NLev, NParts: cfg.DistParts, Mode: precision.Mixed,
		Init: init, Steps: cfg.DistSteps, Dt: 60, Recs: recs, Reg: reg,
	})

	h := reg.Histogram("grist_step_latency_seconds")
	return TelemetryBenchResult{
		Steps:            cfg.Steps,
		StepLatencyP50:   h.Quantile(0.5),
		StepLatencyP90:   h.Quantile(0.9),
		StepLatencyP99:   h.Quantile(0.99),
		StepLatencyMean:  h.Mean(),
		SYPD:             reg.Gauge("grist_sypd").Value(),
		CommShare:        reg.Gauge("grist_comm_share").Value(),
		LoadImbalance:    core.LoadImbalance(dist.RankWall),
		HaloBytesPerStep: reg.Gauge("grist_halo_bytes_per_step").Value(),
		Spans:            rec.Len(),
		SpansDropped:     rec.Dropped(),
		SentinelTrips:    len(tel.Health.Trips()),
	}, rec
}

// Rows renders the result as aligned report lines.
func (r TelemetryBenchResult) Rows() []string {
	return []string{
		fmt.Sprintf("steps=%d  latency p50=%.3fs p90=%.3fs p99=%.3fs mean=%.3fs",
			r.Steps, r.StepLatencyP50, r.StepLatencyP90, r.StepLatencyP99, r.StepLatencyMean),
		fmt.Sprintf("sypd=%.4f  comm share=%.1f%%  load imbalance=%.2f  halo bytes/step=%.0f",
			r.SYPD, r.CommShare*100, r.LoadImbalance, r.HaloBytesPerStep),
		fmt.Sprintf("spans=%d (dropped %d)  sentinel trips=%d", r.Spans, r.SpansDropped, r.SentinelTrips),
	}
}

// WriteTelemetryBench runs the default benchmark and writes
// BENCH_telemetry.json plus the Chrome trace BENCH_trace.json into dir,
// returning the result for display.
func WriteTelemetryBench(dir string) (TelemetryBenchResult, error) {
	res, rec := RunTelemetryBench(DefaultTelemetryBenchConfig())
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return res, err
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_telemetry.json"), append(buf, '\n'), 0o644); err != nil {
		return res, err
	}
	f, err := os.Create(filepath.Join(dir, "BENCH_trace.json"))
	if err != nil {
		return res, err
	}
	defer f.Close()
	return res, rec.WriteChromeTrace(f)
}
