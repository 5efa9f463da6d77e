// Package telemetry is the model's flight recorder and metrics plane.
//
// The paper's performance story rests on measurement — per-kernel runtime
// logs, the communication/computation split, SYPD scaling — and a run
// that is drifting numerically or load-imbalanced should be visible
// *while it runs*, not after it finishes. This package provides the three
// pieces every layer of the model reports into:
//
//   - Recorder: an allocation-free span tracer over a fixed-size ring
//     buffer. Span begin/end in the hot path performs zero heap
//     allocations (guarded by testing.AllocsPerRun); when the ring wraps,
//     the oldest spans are overwritten — a flight recorder keeps the
//     recent past, not the whole flight. Spans carry per-rank and
//     per-step attribution and export as Chrome trace_event JSON
//     (chrome://tracing, Perfetto) — see WriteChromeTrace.
//
//   - Registry: a concurrency-safe metrics registry of counters
//     (monotone, atomic), gauges (last-value, atomic) and histograms
//     (log-bucketed with an exponentially weighted moving average),
//     exported in Prometheus text format and JSON — see WritePrometheus
//     and WriteJSON.
//
//   - An HTTP plane (NewMux/Serve) publishing /metrics, /metrics.json,
//     /trace and net/http/pprof, wired into cmd/grist and cmd/gristbench
//     behind -telemetry.addr.
//
// The numerical-health sentinels (NaN scans, budget drift, the rolling
// ps/vor gate of §3.4) live in internal/diag and report into a Registry.
//
// A nil *Recorder is a valid, disabled recorder: Begin returns an inert
// Span and End is a no-op, so instrumented code paths need no branches
// at call sites and cost two predictable nil checks when telemetry is
// off.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event is one completed span in the ring: a named interval with rank
// and model-step attribution. Start is nanoseconds since the recorder's
// epoch; Dur is the span length in nanoseconds.
type Event struct {
	Name  string
	Rank  int32
	Step  int64
	Start int64
	Dur   int64
}

// Recorder is the fixed-size flight recorder. All methods are safe for
// concurrent use; a nil receiver is a disabled recorder.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	next   uint64 // monotone count of events ever recorded

	step atomic.Int64

	// now returns nanoseconds since the epoch. Replaceable by tests for
	// deterministic traces; the default reads the monotonic clock.
	now func() int64
}

// NewRecorder creates a flight recorder holding the last capacity spans
// (minimum 16).
func NewRecorder(capacity int) *Recorder {
	if capacity < 16 {
		capacity = 16
	}
	epoch := time.Now()
	return &Recorder{
		events: make([]Event, capacity),
		now:    func() int64 { return int64(time.Since(epoch)) },
	}
}

// SetStep sets the model step attributed to subsequently recorded spans.
// Drivers call it once per step; it is cheap and atomic.
func (r *Recorder) SetStep(step int64) {
	if r == nil {
		return
	}
	r.step.Store(step)
}

// CurrentStep returns the step most recently set with SetStep.
func (r *Recorder) CurrentStep() int64 {
	if r == nil {
		return 0
	}
	return r.step.Load()
}

// Span is an in-flight interval begun by Begin or BeginAt. The zero
// Span (and any Span from a nil Recorder) is inert: End does nothing.
type Span struct {
	rec   *Recorder
	name  string
	rank  int32
	step  int64 // explicit step when stepped is true (BeginAt)
	start int64
	// stepped selects the step source at End: the explicit step carried
	// by the span (BeginAt) or the recorder's shared SetStep value
	// (Begin). SPMD ranks advance their step counters independently, so
	// a shared atomic would misattribute a straggler's spans; BeginAt
	// lets each rank stamp its own step.
	stepped bool
}

// Begin starts a span attributed to rank. The span is recorded when End
// is called; Begin itself only reads the clock. Allocation-free.
func (r *Recorder) Begin(name string, rank int32) Span {
	if r == nil {
		return Span{}
	}
	return Span{rec: r, name: name, rank: rank, start: r.now()}
}

// BeginAt starts a span attributed to rank with an explicit model step,
// overriding the recorder-wide SetStep value. Distributed runners use
// it because concurrently advancing ranks have no shared "current"
// step. Allocation-free.
func (r *Recorder) BeginAt(name string, rank int32, step int64) Span {
	if r == nil {
		return Span{}
	}
	return Span{rec: r, name: name, rank: rank, step: step, stepped: true, start: r.now()}
}

// End completes the span and writes it into the ring, overwriting the
// oldest event when full. Allocation-free.
func (s Span) End() {
	r := s.rec
	if r == nil {
		return
	}
	end := r.now()
	step := s.step
	if !s.stepped {
		step = r.step.Load()
	}
	r.mu.Lock()
	ev := &r.events[int(r.next%uint64(len(r.events)))]
	ev.Name = s.name
	ev.Rank = s.rank
	ev.Step = step
	ev.Start = s.start
	ev.Dur = end - s.start
	r.next++
	r.mu.Unlock()
}

// Len returns the number of events currently held (at most the ring
// capacity).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next < uint64(len(r.events)) {
		return int(r.next)
	}
	return len(r.events)
}

// Dropped returns how many events have been overwritten by ring wrap.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next <= uint64(len(r.events)) {
		return 0
	}
	return r.next - uint64(len(r.events))
}

// DropCounter publishes a recorder's ring-wrap drop count into the
// monotone grist_trace_dropped_total counter. Dropped() is a cumulative
// high-water mark while counters only move forward, so the publisher
// tracks the last value it pushed and adds deltas; call Publish from
// any periodic point (a poll loop, the end of a run leg).
type DropCounter struct {
	rec  *Recorder
	c    *Counter
	mu   sync.Mutex
	last uint64
}

// NewDropCounter wires rec's drop count to grist_trace_dropped_total in
// reg. Either argument may be nil, yielding an inert publisher.
func NewDropCounter(reg *Registry, rec *Recorder) *DropCounter {
	d := &DropCounter{rec: rec}
	if reg != nil {
		d.c = reg.Counter("grist_trace_dropped_total")
	}
	return d
}

// Publish pushes the drops accrued since the previous Publish.
func (d *DropCounter) Publish() {
	if d == nil || d.c == nil || d.rec == nil {
		return
	}
	n := d.rec.Dropped()
	d.mu.Lock()
	if n > d.last {
		d.c.Add(int64(n - d.last))
		d.last = n
	}
	d.mu.Unlock()
}

// Snapshot returns the held events in chronological (recording) order.
// The returned slice is a copy; the recorder keeps running.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.events))
	if r.next <= n {
		return append([]Event(nil), r.events[:r.next]...)
	}
	// Ring has wrapped: oldest event sits at next % n.
	out := make([]Event, 0, n)
	head := int(r.next % n)
	out = append(out, r.events[head:]...)
	out = append(out, r.events[:head]...)
	return out
}
