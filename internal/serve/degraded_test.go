package serve

import (
	"encoding/json"
	"testing"
	"time"
)

// Bounded-staleness degraded mode over HTTP: within the bound the
// plane is silent about lag; past it, responses carry X-Grist-Stale
// and /healthz reports "degraded" while still returning 200 (the
// daemon is up and serving — just behind).
func TestHTTPDegradedModeBoundedStaleness(t *testing.T) {
	s := newTestServer(Config{MaxStale: 2})
	mux := s.Mux()
	s.Publish(testSnapshot(1))

	s.SetStaleness(2)
	if s.Degraded() {
		t.Fatal("Degraded at the bound, want degraded only beyond it")
	}
	rec := get(t, mux, "/v1/point?lat=12&lon=34&field=t_sfc", "")
	if rec.Code != 200 {
		t.Fatalf("point while fresh = %d", rec.Code)
	}
	if h := rec.Header().Get("X-Grist-Stale"); h != "" {
		t.Fatalf("X-Grist-Stale = %q within the bound, want unset", h)
	}

	s.SetStaleness(5)
	s.SetQuarantine([]int{3, 4})
	if !s.Degraded() {
		t.Fatal("not Degraded past the staleness bound")
	}
	rec = get(t, mux, "/v1/point?lat=12&lon=34&field=t_sfc", "")
	if rec.Code != 200 {
		t.Fatalf("degraded point = %d, want 200 (stale answers still serve)", rec.Code)
	}
	if h := rec.Header().Get("X-Grist-Stale"); h != "5" {
		t.Fatalf("X-Grist-Stale = %q, want \"5\"", h)
	}

	rec = get(t, mux, "/healthz", "")
	if rec.Code != 200 {
		t.Fatalf("degraded healthz = %d, want 200", rec.Code)
	}
	var hz struct {
		Status      string `json:"status"`
		StaleEpochs int    `json:"stale_epochs"`
		MaxStale    int    `json:"max_stale"`
		Quarantined []int  `json:"quarantined"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" || hz.StaleEpochs != 5 || hz.MaxStale != 2 {
		t.Fatalf("healthz = %+v, want degraded/5/2", hz)
	}
	if len(hz.Quarantined) != 2 || hz.Quarantined[0] != 3 || hz.Quarantined[1] != 4 {
		t.Fatalf("healthz quarantined = %v, want [3 4]", hz.Quarantined)
	}

	// Recovery clears the flag and the header.
	s.SetStaleness(0)
	s.SetQuarantine(nil)
	rec = get(t, mux, "/healthz", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || s.Degraded() {
		t.Fatalf("healthz after recovery = %+v (Degraded=%v), want ok", hz, s.Degraded())
	}
}

// Breaker-shed 503s travel over HTTP with Retry-After and the
// X-Grist-Reject: breaker tag so clients (and the load generator) can
// tell intentional degradation from an unexplained 5xx.
func TestHTTPBreakerShedCarriesRetryAfter(t *testing.T) {
	s := newTestServer(Config{})
	s.Engine.SetBreaker(1, time.Minute)
	mux := s.Mux()
	s.Publish(malformedSnapshot(1))

	rec := get(t, mux, "/v1/point?lat=12&lon=34&field=t_sfc", "")
	if rec.Code != 503 {
		t.Fatalf("poisoned point = %d, want 503", rec.Code)
	}
	// The breaker is now open for that key: the next request is a shed
	// with full degradation headers.
	rec = get(t, mux, "/v1/point?lat=12&lon=34&field=t_sfc", "")
	if rec.Code != 503 {
		t.Fatalf("shed point = %d, want 503", rec.Code)
	}
	if rec.Header().Get("X-Grist-Reject") != "breaker" {
		t.Fatalf("X-Grist-Reject = %q, want breaker", rec.Header().Get("X-Grist-Reject"))
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed 503 missing Retry-After")
	}
	var e Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != 503 || e.Msg == "" {
		t.Fatalf("shed body = %+v, want a machine-readable 503", e)
	}
}
