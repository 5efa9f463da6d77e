package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"gristgo/internal/telemetry"
)

func newTestServer(cfg Config) *Server {
	s := NewServer(testMesh, cfg, telemetry.NewRegistry())
	return s
}

func get(t *testing.T, h http.Handler, path, tenant string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	if tenant != "" {
		req.Header.Set("X-Grist-Tenant", tenant)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestQuotasTokenBucket(t *testing.T) {
	q := NewQuotas(10, 3)
	clock := time.Unix(1000, 0)
	q.now = func() time.Time { return clock }
	for i := 0; i < 3; i++ {
		if !q.Allow("a") {
			t.Fatalf("request %d within burst rejected", i)
		}
	}
	if q.Allow("a") {
		t.Fatal("request beyond burst allowed")
	}
	// Another tenant has its own bucket.
	if !q.Allow("b") {
		t.Fatal("fresh tenant rejected")
	}
	// 10 tokens/s: 200ms buys two more requests.
	clock = clock.Add(200 * time.Millisecond)
	if !q.Allow("a") || !q.Allow("a") {
		t.Fatal("refilled tokens not granted")
	}
	if q.Allow("a") {
		t.Fatal("third request after 200ms refill allowed")
	}
	if q.Tenants() != 2 {
		t.Fatalf("Tenants = %d, want 2", q.Tenants())
	}
	// Rate 0 disables limiting entirely.
	open := NewQuotas(0, 1)
	for i := 0; i < 100; i++ {
		if !open.Allow("x") {
			t.Fatal("unlimited quota rejected a request")
		}
	}
}

func TestHealthzWarmingThenReady(t *testing.T) {
	s := newTestServer(Config{})
	mux := s.Mux()
	if rec := get(t, mux, "/healthz", ""); rec.Code != 503 {
		t.Fatalf("healthz before first snapshot = %d, want 503", rec.Code)
	}
	s.Publish(testSnapshot(1))
	if rec := get(t, mux, "/healthz", ""); rec.Code != 200 {
		t.Fatalf("healthz after snapshot = %d, want 200", rec.Code)
	}
}

func TestHTTPPointAndEpochs(t *testing.T) {
	s := newTestServer(Config{})
	mux := s.Mux()
	s.Publish(testSnapshot(1))
	s.Publish(testSnapshot(2))

	rec := get(t, mux, "/v1/point?lat=12&lon=34&field=t_sfc", "")
	if rec.Code != 200 {
		t.Fatalf("point = %d: %s", rec.Code, rec.Body.String())
	}
	if c := rec.Header().Get("X-Grist-Cache"); c != CacheBuild {
		t.Fatalf("first point X-Grist-Cache = %q, want %q", c, CacheBuild)
	}
	var pt PointResult
	if err := json.Unmarshal(rec.Body.Bytes(), &pt); err != nil {
		t.Fatal(err)
	}
	if pt.Epoch != 2 || pt.Field != "t_sfc" {
		t.Fatalf("point served (epoch=%d, field=%q), want latest epoch 2, t_sfc", pt.Epoch, pt.Field)
	}
	if pt.Value < 150 || pt.Value > 400 {
		t.Fatalf("implausible surface temperature %v", pt.Value)
	}

	rec = get(t, mux, "/v1/point?lat=12&lon=34&field=t_sfc", "")
	if c := rec.Header().Get("X-Grist-Cache"); c != CacheHit {
		t.Fatalf("second point X-Grist-Cache = %q, want %q", c, CacheHit)
	}

	// Explicit epoch selection.
	rec = get(t, mux, "/v1/point?lat=12&lon=34&epoch=1", "")
	if rec.Code != 200 {
		t.Fatalf("point@1 = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &pt); err != nil {
		t.Fatal(err)
	}
	if pt.Epoch != 1 || pt.Field != "ps" {
		t.Fatalf("point@1 served (epoch=%d, field=%q), want (1, ps default)", pt.Epoch, pt.Field)
	}

	// Discovery endpoint.
	rec = get(t, mux, "/v1/epochs", "")
	var eps epochsResult
	if err := json.Unmarshal(rec.Body.Bytes(), &eps); err != nil {
		t.Fatal(err)
	}
	if len(eps.Epochs) != 2 || len(eps.Fields) != NumFields {
		t.Fatalf("epochs = %+v", eps)
	}
}

func TestHTTPClientErrorsAre4xx(t *testing.T) {
	s := newTestServer(Config{})
	mux := s.Mux()
	s.Publish(testSnapshot(1))
	for _, path := range []string{
		"/v1/point?lat=banana",
		"/v1/point?lat=95",
		"/v1/point?field=vorticity",
		"/v1/point?epoch=banana",
		"/v1/point?epoch=99",
		"/v1/region?min_lat=40&max_lat=10",
		"/v1/range?from=9&to=2",
	} {
		rec := get(t, mux, path, "")
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("%s = %d, want 4xx", path, rec.Code)
		}
		var e Error
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Msg == "" {
			t.Fatalf("%s: error body not JSON with message: %s", path, rec.Body.String())
		}
	}
}

// A tenant past its quota gets 429 with Retry-After and the reject
// header, and other tenants keep flowing.
func TestHTTPQuota429(t *testing.T) {
	s := newTestServer(Config{QuotaRate: 1, QuotaBurst: 3})
	mux := s.Mux()
	s.Publish(testSnapshot(1))
	path := "/v1/point?lat=0&lon=0"
	for i := 0; i < 3; i++ {
		if rec := get(t, mux, path, "greedy"); rec.Code != 200 {
			t.Fatalf("request %d within burst = %d", i, rec.Code)
		}
	}
	rec := get(t, mux, path, "greedy")
	if rec.Code != 429 {
		t.Fatalf("over-quota request = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	if r := rec.Header().Get("X-Grist-Reject"); r != "quota" {
		t.Fatalf("X-Grist-Reject = %q, want quota", r)
	}
	// A polite tenant is unaffected.
	if rec := get(t, mux, path, "polite"); rec.Code != 200 {
		t.Fatalf("other tenant = %d while greedy throttled", rec.Code)
	}
}

// With the admission queue full, requests bounce with 429/queue — the
// plane sheds load instead of erroring.
func TestHTTPQueueFull429(t *testing.T) {
	s := newTestServer(Config{QueueDepth: 2})
	mux := s.Mux()
	s.Publish(testSnapshot(1))
	// Occupy every queue slot as if that many requests were in flight.
	s.queue <- struct{}{}
	s.queue <- struct{}{}
	rec := get(t, mux, "/v1/point?lat=0&lon=0", "")
	if rec.Code != 429 {
		t.Fatalf("full-queue request = %d, want 429", rec.Code)
	}
	if r := rec.Header().Get("X-Grist-Reject"); r != "queue" {
		t.Fatalf("X-Grist-Reject = %q, want queue", r)
	}
	// Healthz still answers under full backpressure.
	if rec := get(t, mux, "/healthz", ""); rec.Code != 200 {
		t.Fatalf("healthz under backpressure = %d, want 200", rec.Code)
	}
	// Draining one slot readmits traffic.
	<-s.queue
	if rec := get(t, mux, "/v1/point?lat=0&lon=0", ""); rec.Code != 200 {
		t.Fatalf("after drain = %d, want 200", rec.Code)
	}
}

// The in-process load replay: a short storm must produce zero 5xx,
// a healthy hit rate, and quota rejections only for the greedy tenant.
func TestLoadReplayShortStorm(t *testing.T) {
	s := newTestServer(Config{QuotaRate: 50, QuotaBurst: 100})
	for e := 1; e <= 3; e++ {
		s.Publish(testSnapshot(e))
	}
	n := 20000
	if testing.Short() {
		n = 4000
	}
	before := s.Engine.Stats()
	rep := runLoadInProcess(s.Mux(), s.Engine, n, 1)
	after := s.Engine.Stats()
	if got := rep.OK + rep.Client4xx + rep.Quota429 + rep.Busy429 + rep.Breaker503 + rep.Server5xx; got != int64(n) {
		t.Fatalf("counted %d answers, want %d", got, n)
	}
	if rep.Server5xx != 0 {
		t.Fatalf("replay produced %d server 5xx", rep.Server5xx)
	}
	if rep.OK == 0 {
		t.Fatal("replay produced no successful queries")
	}
	if rep.Client4xx != 0 {
		t.Fatalf("well-formed replay produced %d 4xx", rep.Client4xx)
	}
	if rep.Quota429 == 0 {
		t.Fatal("greedy tenant was never throttled")
	}
	// Loose sanity bound: the short run is cold-start dominated (720
	// keys, 96-tile cache), so only assert the cache is clearly working.
	window := EngineStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
	if window.HitRate() < 0.25 {
		t.Fatalf("hit rate %.2f implausibly low for a hotspot workload", window.HitRate())
	}
	if after.Builds == before.Builds {
		t.Fatal("no tile was ever built")
	}
}

// refQuota is the uncapped token bucket the table replaced, kept as the
// reference a tenant's allow/deny sequence must still equal.
type refQuota struct {
	rate, burst, tokens float64
	last                time.Time
	seen                bool
}

func (b *refQuota) allow(now time.Time) bool {
	if !b.seen {
		b.tokens, b.last, b.seen = b.burst, now, true
	} else {
		b.tokens = math.Min(b.burst, b.tokens+now.Sub(b.last).Seconds()*b.rate)
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Client-chosen tenant names cannot grow the bucket table without
// bound, and the cap is invisible to a tenant that keeps to its rate:
// its bucket is only ever dropped when full, which is what a fresh one
// starts as.
func TestQuotasTableIsBounded(t *testing.T) {
	q := NewQuotas(10, 3)
	clock := time.Unix(1000, 0)
	q.now = func() time.Time { return clock }
	ref := &refQuota{rate: 10, burst: 3}
	denied := 0
	for i := 0; i < 100000; i++ {
		clock = clock.Add(time.Millisecond)
		if !q.Allow("drive-by-" + strconv.Itoa(i)) {
			denied++
		}
		if n := q.Tenants(); n > maxTenants {
			t.Fatalf("after %d distinct tenants the table holds %d buckets, cap %d", i+1, n, maxTenants)
		}
		if i%7 == 0 || i%50 < 5 { // steady use with a burst every 50 ms
			if got, want := q.Allow("steady"), ref.allow(clock); got != want {
				t.Fatalf("request at +%d ms: steady tenant allowed=%v, uncapped bucket says %v", i+1, got, want)
			}
		}
	}
	// A drive-by bucket refills in 100 ms, so each sweep at the cap finds
	// room: no newcomer is refused at this arrival rate.
	if denied != 0 {
		t.Fatalf("%d fresh tenants refused although refilled buckets could be dropped", denied)
	}

	// With the clock stopped nothing refills: the table fills to the cap
	// and every further newcomer is answered like a tenant out of tokens.
	q = NewQuotas(10, 3)
	q.now = func() time.Time { return clock }
	for i := 0; i < maxTenants; i++ {
		if !q.Allow("t" + strconv.Itoa(i)) {
			t.Fatalf("tenant %d refused below the cap", i)
		}
	}
	if q.Allow("one-too-many") {
		t.Fatal("newcomer admitted into a full table of non-full buckets")
	}
	if !q.Allow("t0") {
		t.Fatal("a tenant already holding a bucket was refused at the cap")
	}
	if q.Tenants() != maxTenants {
		t.Fatalf("Tenants = %d, want %d", q.Tenants(), maxTenants)
	}
}

// Outside names are bounded before they reach server state: an
// oversized tenant is a 400 that never keys a bucket, and an inbound
// trace ID is honored only when short and plain.
func TestHTTPBoundsClientChosenNames(t *testing.T) {
	s := newTestServer(Config{QuotaRate: 100, QuotaBurst: 100})
	mux := s.Mux()
	s.Publish(testSnapshot(1))
	path := "/v1/point?lat=0&lon=0"

	long := strings.Repeat("t", maxNameLen+1)
	for _, rec := range []*httptest.ResponseRecorder{
		get(t, mux, path, long),
		get(t, mux, path+"&tenant="+long, ""),
	} {
		if rec.Code != 400 || !strings.Contains(rec.Body.String(), "tenant name is 65 bytes") {
			t.Fatalf("oversized tenant = %d %s, want 400 naming the length", rec.Code, rec.Body.String())
		}
	}
	if n := s.Quotas.Tenants(); n != 0 {
		t.Fatalf("oversized tenants left %d quota buckets", n)
	}
	if rec := get(t, mux, path, long[:maxNameLen]); rec.Code != 200 {
		t.Fatalf("%d-byte tenant = %d, want 200", maxNameLen, rec.Code)
	}

	for _, tc := range []struct {
		id      string
		honored bool
	}{
		{"req-2024.06_A", true},
		{strings.Repeat("a", maxNameLen), true},
		{strings.Repeat("a", maxNameLen+1), false},
		{"has space", false},
		{"<script>", false},
		{"line\nbreak", false},
	} {
		req := httptest.NewRequest("GET", path, nil)
		req.Header.Set("X-Grist-Trace", tc.id)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		echoed := rec.Header().Get("X-Grist-Trace")
		if rec.Code != 200 || (echoed == tc.id) != tc.honored || !validTraceID(echoed) {
			t.Errorf("X-Grist-Trace %q: code %d, echoed %q, want honored=%v", tc.id, rec.Code, echoed, tc.honored)
		}
		if _, kept := s.traces.byID(tc.id); kept != tc.honored {
			t.Errorf("X-Grist-Trace %q retained in the ring = %v, want %v", tc.id, kept, tc.honored)
		}
	}
}

func TestDebugQueryRejectsMalformedLimit(t *testing.T) {
	s := newTestServer(Config{})
	mux := s.Mux()
	s.RegisterDebug(mux)
	if rec := get(t, mux, "/debug/query?limit=abc", ""); rec.Code != 400 {
		t.Fatalf("/debug/query?limit=abc = %d, want 400", rec.Code)
	}
	if rec := get(t, mux, "/debug/query?limit=2", ""); rec.Code != 200 {
		t.Fatalf("/debug/query?limit=2 = %d, want 200", rec.Code)
	}
}
