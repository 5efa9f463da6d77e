package core

// Model-level telemetry wiring: one EnableTelemetry call threads the
// flight recorder and metric registry through every instrumented
// component (dycore engine, tracer transport, ML physics suite) and
// attaches the numerical-health sentinels, so a driver gets the full
// Step timeline, the throughput metrics and the health gauges from a
// single switch.

import (
	"time"

	"gristgo/internal/diag"
	"gristgo/internal/telemetry"
)

// secondsPerYear converts simulated seconds to simulated years for the
// SYPD (simulated years per wall-clock day) gauge.
const secondsPerYear = 365.0 * 86400.0

// ModelTelemetry bundles a model's observability state: the registry
// and recorder shared with the HTTP plane, the health monitor, and the
// pre-resolved instrument handles the step loop updates.
type ModelTelemetry struct {
	Reg    *telemetry.Registry
	Rec    *telemetry.Recorder
	Health *diag.HealthMonitor

	// HealthEvery runs the sentinel scan every N physics steps
	// (default 1; sentinels are cheap relative to a physics step).
	HealthEvery int

	stepLatency *telemetry.Histogram
	sypd        *telemetry.Gauge
	simSeconds  *telemetry.Gauge
	steps       *telemetry.Counter
	drops       *telemetry.DropCounter
	stepNo      int64

	// Graceful degradation: when the physics suite supports DegradeFor
	// (the ML suite does), a sentinel trip benches its batched engine for
	// the next step. lastTrips remembers the monitor's trip count at the
	// previous scan so only new trips degrade.
	degrade   Degradable
	lastTrips int64
}

// Degradable is implemented by physics suites that can fall back to a
// trusted slow path for a number of steps (mlphysics.Suite.DegradeFor).
type Degradable interface{ DegradeFor(steps int) }

// EnableTelemetry attaches observability to the model: engine, tracer
// transport and (when supported) the physics suite report spans into
// rec, step latency/SYPD metrics land in reg, and the numerical-health
// sentinels watch the prognostic state, forwarding trips to warn (nil:
// trips are only counted). Either sink may be nil to disable that
// aspect. Returns the wiring handle now stored on the model.
func (mod *Model) EnableTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder, warn func(diag.HealthEvent)) *ModelTelemetry {
	tel := &ModelTelemetry{Reg: reg, Rec: rec, HealthEvery: 1}
	if reg != nil {
		tel.Health = diag.NewHealthMonitor(reg, warn)
		tel.stepLatency = reg.Histogram("grist_step_latency_seconds")
		tel.sypd = reg.Gauge("grist_sypd")
		tel.simSeconds = reg.Gauge("grist_sim_seconds")
		tel.steps = reg.Counter("grist_physics_steps_total")
		tel.drops = telemetry.NewDropCounter(reg, rec)
		// A single-process run has no exchange and one rank: comm share
		// is genuinely 0 and the imbalance ratio 1. Registering the
		// degenerate values keeps the exposition schema identical between
		// serial and distributed runs; Run overwrites both.
		reg.Gauge("grist_comm_share").Set(0)
		reg.Gauge("grist_load_imbalance").Set(1)
	}
	mod.Engine.SetTelemetry(rec, 0)
	mod.Transport.SetTelemetry(rec, 0)
	if ts, ok := mod.Physics.(interface {
		SetTelemetry(*telemetry.Recorder, *telemetry.Registry)
	}); ok {
		ts.SetTelemetry(rec, reg)
	}
	if d, ok := mod.Physics.(Degradable); ok {
		tel.degrade = d
	}
	mod.tel = tel
	return tel
}

// beginStep stamps the recorder with the upcoming physics step index and
// opens the step span. Nil-safe: an unwired model pays two nil checks.
func (tel *ModelTelemetry) beginStep() (telemetry.Span, time.Time) {
	if tel == nil {
		return telemetry.Span{}, time.Time{}
	}
	tel.stepNo++
	tel.Rec.SetStep(tel.stepNo)
	return tel.Rec.Begin("physics_step", 0), time.Now()
}

// endStep closes the step span and updates the throughput metrics:
// the step-latency histogram (seconds, with EWMA and percentiles) and
// the SYPD gauge computed from this step's simulated/wall ratio.
func (tel *ModelTelemetry) endStep(mod *Model, sp telemetry.Span, start time.Time, dtPhy float64) {
	if tel == nil {
		return
	}
	sp.End()
	if tel.steps == nil {
		return
	}
	wall := time.Since(start).Seconds()
	tel.steps.Inc()
	tel.stepLatency.Observe(wall)
	tel.simSeconds.Set(mod.TimeSec)
	if wall > 0 {
		tel.sypd.Set(dtPhy / wall * 86400.0 / secondsPerYear)
	}
	tel.drops.Publish()
	if tel.Health != nil && tel.HealthEvery > 0 && tel.stepNo%int64(tel.HealthEvery) == 0 {
		tel.scanHealth(mod)
	}
}

// scanHealth runs the sentinel pass over the prognostic state: NaN/Inf
// scans of the dynamical fields, the global dry-mass budget (conserved
// to rounding by the continuity equation) and the total-energy budget.
func (tel *ModelTelemetry) scanHealth(mod *Model) {
	h := tel.Health
	s := mod.Engine.State()
	step := tel.stepNo
	h.CheckFinite(step, "dry_mass", s.DryMass)
	h.CheckFinite(step, "theta_m", s.ThetaM)
	h.CheckFinite(step, "u", s.U)
	h.CheckFinite(step, "w", s.W)
	h.ObserveMassBudget(step, globalDryMass(mod))
	h.ObserveEnergyBudget(step, s.TotalEnergy())
	// New trips since the last scan bench the suspect fast path: the next
	// physics step runs on the scalar oracle while the state recovers (or
	// the sentinel keeps tripping and keeps it benched).
	if trips := h.TotalTrips(); trips > tel.lastTrips {
		if tel.degrade != nil {
			tel.degrade.DegradeFor(1)
		}
		tel.lastTrips = trips
	}
}

// globalDryMass integrates the dry-air mass over the sphere (Pa m^2,
// i.e. proportional to total mass), the invariant of the continuity
// equation the mass sentinel watches.
func globalDryMass(mod *Model) float64 {
	m := mod.Mesh
	nlev := mod.Cfg.NLev
	s := mod.Engine.State()
	var total float64
	for c := 0; c < m.NCells; c++ {
		var col float64
		for k := 0; k < nlev; k++ {
			col += s.DryMass[c*nlev+k]
		}
		total += col * m.CellArea[c]
	}
	return total
}
