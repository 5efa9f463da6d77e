package telemetry

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock installs a deterministic nanosecond clock on a recorder and
// returns the tick function: every call to now() advances by step.
func fakeClock(r *Recorder, step int64) {
	var t int64
	r.now = func() int64 {
		t += step
		return t
	}
}

// TestRecorderRing: events append in order, wrap overwrites the oldest,
// and Snapshot returns chronological order across the wrap.
func TestRecorderRing(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 20; i++ {
		r.SetStep(int64(i))
		sp := r.Begin("span", 3)
		sp.End()
	}
	if got := r.Len(); got != 16 {
		t.Fatalf("Len = %d, want 16 (ring capacity)", got)
	}
	if got := r.Dropped(); got != 4 {
		t.Fatalf("Dropped = %d, want 4", got)
	}
	evs := r.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("snapshot has %d events, want 16", len(evs))
	}
	for i, ev := range evs {
		if want := int64(i + 4); ev.Step != want {
			t.Fatalf("event %d step = %d, want %d (oldest 4 overwritten)", i, ev.Step, want)
		}
		if ev.Rank != 3 || ev.Name != "span" {
			t.Fatalf("event %d attribution = (%q, rank %d)", i, ev.Name, ev.Rank)
		}
	}
}

// TestNilRecorderIsDisabled: a nil recorder must be safe to use from
// instrumented code paths with no nil checks at call sites.
func TestNilRecorderIsDisabled(t *testing.T) {
	var r *Recorder
	r.SetStep(5)
	sp := r.Begin("x", 0)
	sp.End()
	if r.Len() != 0 || r.Snapshot() != nil || r.Dropped() != 0 || r.CurrentStep() != 0 {
		t.Error("nil recorder leaked state")
	}
}

// TestSpanAllocFree: the hot-path contract — span begin/end, on the
// shared or on a stamped step, performs zero heap allocations (the
// flight recorder writes into the preallocated ring).
func TestSpanAllocFree(t *testing.T) {
	r := NewRecorder(1024)
	allocs := testing.AllocsPerRun(200, func() {
		sp := r.Begin("dyn_interior", 1)
		sp.End()
		sp = r.BeginAt("halo_wait", 1, 7)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("span begin/end allocates %.1f times per op, want 0", allocs)
	}
}

// TestMetricOpsAllocFree: counter/gauge/histogram operations through
// pre-resolved handles, an exemplar-carrying observation included, are
// allocation-free too.
func TestMetricOpsAllocFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("grist_test_total")
	g := reg.Gauge("grist_test_gauge")
	h := reg.Histogram("grist_test_seconds")
	allocs := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(3)
		g.Set(1.5)
		h.Observe(0.25)
		h.ObserveExemplar(0.5, "trace-id")
	})
	if allocs != 0 {
		t.Errorf("metric ops allocate %.1f times per op, want 0", allocs)
	}
}

// TestRecorderConcurrent: many goroutines recording concurrently (run
// under -race by make race) neither race nor lose the ring invariants.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(rank int32) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sp := r.Begin("work", rank)
				sp.End()
			}
		}(int32(g))
	}
	done := make(chan struct{})
	go func() { // concurrent reader
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Snapshot()
			r.Len()
		}
	}()
	wg.Wait()
	<-done
	if got := r.Len(); got != 256 {
		t.Fatalf("Len = %d, want full ring", got)
	}
	if total := r.Dropped() + 256; total != 8*500 {
		t.Fatalf("recorded %d events, want %d", total, 8*500)
	}
}

// TestHistogramQuantiles: the log-bucketed quantiles land within a
// factor of two of the true percentiles, and extremes are exact.
func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000) // uniform on (0, 1]
	}
	if got := h.Quantile(0); got != 0.001 {
		t.Errorf("q0 = %g, want exact min 0.001", got)
	}
	if got := h.Quantile(1); got != 1 {
		t.Errorf("q1 = %g, want exact max 1", got)
	}
	p50 := h.Quantile(0.5)
	if p50 < 0.25 || p50 > 1.0 {
		t.Errorf("p50 = %g, want within a factor of two of 0.5", p50)
	}
	if h.Count() != 1000 {
		t.Errorf("count = %d", h.Count())
	}
	if m := h.Mean(); m < 0.49 || m > 0.52 {
		t.Errorf("mean = %g, want ~0.5", m)
	}
	if e := h.EWMA(); e < 0.8 {
		t.Errorf("ewma = %g, want dominated by the recent (large) samples", e)
	}
}

// TestRegistrySharing: the same (name, labels) returns the same
// instrument; label order does not matter; kind mismatch panics.
func TestRegistrySharing(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("grist_x_total", "rank", "0", "comp", "dyn")
	b := reg.Counter("grist_x_total", "comp", "dyn", "rank", "0")
	if a != b {
		t.Error("label order created distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	reg.Gauge("grist_x_total", "rank", "0", "comp", "dyn")
}

// TestServeEndpoints: the HTTP plane serves all four endpoint families.
func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("grist_http_test_total").Add(7)
	rec := NewRecorder(64)
	sp := rec.Begin("served_span", 0)
	time.Sleep(time.Millisecond)
	sp.End()

	srv, addr, err := Serve("127.0.0.1:0", reg, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "grist_http_test_total 7") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if body := get("/metrics.json"); !strings.Contains(body, `"grist_http_test_total"`) {
		t.Errorf("/metrics.json missing counter:\n%s", body)
	}
	if body := get("/trace"); !strings.Contains(body, `"served_span"`) {
		t.Errorf("/trace missing span:\n%s", body)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}
