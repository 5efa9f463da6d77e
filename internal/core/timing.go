package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"gristgo/internal/dycore"
	"gristgo/internal/telemetry"
)

// Timings accumulates wall time per model component, mirroring the
// per-kernel timing log the GRIST artifact prints ("you can obtain the
// runtime of this task and many kernels").
//
// It is a thin view over a telemetry.Registry: every component becomes a
// pair of counters, grist_component_time_ns_total{component=...} and
// grist_component_calls_total{component=...}, so anything accumulated
// here is also visible on the /metrics endpoint. Timings is safe for
// concurrent use — distributed runs drain per-rank exchanger stats into
// one accumulator.
type Timings struct {
	mu    sync.Mutex
	reg   *telemetry.Registry
	comps map[string]compCounters
}

type compCounters struct {
	ns    *telemetry.Counter
	calls *telemetry.Counter
}

// NewTimings returns an empty accumulator over a private registry.
func NewTimings() *Timings {
	return NewTimingsOn(telemetry.NewRegistry())
}

// NewTimingsOn returns an accumulator publishing into an existing
// registry, so component timings share the registry served over HTTP.
func NewTimingsOn(reg *telemetry.Registry) *Timings {
	return &Timings{reg: reg, comps: map[string]compCounters{}}
}

// Registry exposes the backing registry (for export alongside the other
// model metrics).
func (t *Timings) Registry() *telemetry.Registry { return t.reg }

// handles resolves (creating on first use) the counter pair for a
// component.
func (t *Timings) handles(name string) compCounters {
	t.mu.Lock()
	h, ok := t.comps[name]
	if !ok {
		h = compCounters{
			ns:    t.reg.Counter("grist_component_time_ns_total", "component", name),
			calls: t.reg.Counter("grist_component_calls_total", "component", name),
		}
		t.comps[name] = h
	}
	t.mu.Unlock()
	return h
}

// Add records one timed invocation of a component.
func (t *Timings) Add(name string, d time.Duration) {
	h := t.handles(name)
	h.ns.Add(d.Nanoseconds())
	h.calls.Inc()
}

// AddCalls records d spread over n invocations of a component, for
// components that report their own accumulated timings.
func (t *Timings) AddCalls(name string, d time.Duration, n int) {
	h := t.handles(name)
	h.ns.Add(d.Nanoseconds())
	h.calls.Add(int64(n))
}

// Get returns the accumulated duration and call count for a component.
func (t *Timings) Get(name string) (time.Duration, int) {
	t.mu.Lock()
	h, ok := t.comps[name]
	t.mu.Unlock()
	if !ok {
		return 0, 0
	}
	return time.Duration(h.ns.Value()), int(h.calls.Value())
}

// ComponentTimer is implemented by physics suites that keep their own
// fine-grained timing counters — the ML physics suite, whose inference
// engines time each batched Forward (the measurement feeding
// perfmodel's ML-suite cost). DrainTimings reports and resets them.
type ComponentTimer interface {
	DrainTimings(emit func(name string, d time.Duration, calls int))
}

// Time runs f and records its duration under name; a nil accumulator
// just runs f.
func (t *Timings) Time(name string, f func()) {
	if t == nil {
		f()
		return
	}
	start := time.Now()
	f()
	t.Add(name, time.Since(start))
}

// snapshot copies the component table (name -> duration, calls) under
// the lock, so Total and Report render a consistent view.
func (t *Timings) snapshot() (names []string, dur map[string]time.Duration, calls map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	dur = make(map[string]time.Duration, len(t.comps))
	calls = make(map[string]int, len(t.comps))
	for n, h := range t.comps {
		names = append(names, n)
		dur[n] = time.Duration(h.ns.Value())
		calls[n] = int(h.calls.Value())
	}
	return names, dur, calls
}

// Total returns the summed duration.
func (t *Timings) Total() time.Duration {
	_, dur, _ := t.snapshot()
	var sum time.Duration
	for _, d := range dur {
		sum += d
	}
	return sum
}

// Report renders a per-component table sorted by time share, in the
// style of the model's log file.
func (t *Timings) Report() string {
	names, dur, calls := t.snapshot()
	sort.Slice(names, func(i, j int) bool { return dur[names[i]] > dur[names[j]] })
	var total time.Duration
	for _, d := range dur {
		total += d
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %12s %8s %8s\n", "component", "time", "calls", "share")
	for _, n := range names {
		share := 0.0
		if total > 0 {
			share = float64(dur[n]) / float64(total) * 100
		}
		fmt.Fprintf(&b, "%-24s %12s %8d %7.1f%%\n", n, dur[n].Round(time.Microsecond), calls[n], share)
	}
	return b.String()
}

// StepPhysicsTimed is StepPhysics attributing wall time to the dynamics,
// tracer transport, physics and coupling components (tm nil: untimed).
func (mod *Model) StepPhysicsTimed(season float64, tm *Timings) {
	st := mod.Cfg.Steps
	nDyn, nTrac, dtTrac, dtPhy := mod.EffectiveSteps()
	sp, t0 := mod.tel.beginStep()

	for it := 0; it < nTrac; it++ {
		mod.Engine.ResetMassFluxAccum()
		tm.Time("dynamics", func() {
			for id := 0; id < nDyn; id++ {
				mod.Engine.Step(st.Dyn)
				mod.TimeSec += st.Dyn
			}
		})
		tm.Time("tracer_transport", func() { mod.transportTracers(dtTrac) })
	}

	tm.Time("coupling_input", func() { mod.computePhysicsInput(season) })
	tm.Time("physics_"+strings.ReplaceAll(mod.Physics.Name(), " ", "_"), func() {
		mod.Physics.Compute(mod.In, mod.Out, dtPhy)
	})
	if ct, ok := mod.Physics.(ComponentTimer); ok && tm != nil {
		ct.DrainTimings(tm.AddCalls)
	}
	tm.Time("coupling_output", func() { mod.applyPhysicsOutput(dtPhy) })

	mod.stepCount++
	if mod.RemapEvery > 0 && mod.stepCount%mod.RemapEvery == 0 {
		tm.Time("vertical_remap", func() {
			if mod.remapper == nil {
				mod.remapper = dycore.NewRemapper(mod.Engine.State().NLev)
			}
			mod.remapper.Run(mod.Engine.State(), mod.Tracers)
		})
	}
	mod.tel.endStep(mod, sp, t0, dtPhy)
}
