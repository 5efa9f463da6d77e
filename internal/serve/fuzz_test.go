package serve

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzQueryArgs: whatever a client puts after the '?' — or, for
// endpoint bytes 3..5 and 6..8, into X-Grist-Tenant or X-Grist-Trace —
// the three query endpoints answer 2xx or 4xx, never a 5xx, never a
// panic, and the trace ID they echo is always a bounded plain one.
func FuzzQueryArgs(f *testing.F) {
	s := newTestServer(Config{})
	s.Publish(testSnapshot(1))
	s.Publish(testSnapshot(2))
	mux := s.Mux()
	for _, q := range []string{
		"",
		"lat=10&lon=20&field=ps",
		"lat=banana",
		"lat=95",
		"lat=NaN&lon=NaN",
		"lat=Inf&lon=-Inf",
		"lat=1e308&lon=-1e308",
		"field=vorticity",
		"epoch=banana",
		"epoch=99",
		"epoch=-1",
		"min_lat=40&max_lat=10",
		"min_lat=-90&max_lat=90&min_lon=-180&max_lon=180&field=w_max",
		"min_lat=NaN&max_lat=NaN&min_lon=NaN&max_lon=NaN",
		"from=9&to=2",
		"from=1&to=2&lat=0&lon=0",
		"from=-9223372036854775808&to=9223372036854775807",
		"lat=%zz",
		"a=1;b=2",
		"tenant=%00&lat=0&lon=0",
	} {
		for ep := uint8(0); ep < 3; ep++ {
			f.Add(ep, q)
		}
	}
	for ep := uint8(3); ep < 9; ep++ {
		f.Add(ep, strings.Repeat("x", maxNameLen+1))
		f.Add(ep, "a b\r\nX-Injected: 1")
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, query string) {
		path := [...]string{"/v1/point", "/v1/region", "/v1/range"}[endpoint%3]
		req := httptest.NewRequest("GET", path, nil)
		switch endpoint / 3 % 3 {
		case 0:
			req.URL.RawQuery = query
		case 1:
			req.Header.Set("X-Grist-Tenant", query)
		case 2:
			req.Header.Set("X-Grist-Trace", query)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("GET %s (endpoint byte %d, input %q) = %d: %s", path, endpoint, query, rec.Code, rec.Body.String())
		}
		if id := rec.Header().Get("X-Grist-Trace"); !validTraceID(id) {
			t.Fatalf("GET %s (endpoint byte %d, input %q) echoed trace ID %q", path, endpoint, query, id)
		}
	})
}
