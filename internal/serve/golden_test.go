package serve

import (
	"bytes"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_responses.txt from the current handlers")

// TestGoldenResponses pins what a client sees on the wire — status,
// the X-Grist-*/Retry-After/Content-Type headers and the body, byte for
// byte — for one build, one hit, one 400, one 404 and one 429 on each
// query endpoint. A refactor of the admission pipeline or the handlers
// runs against the file unedited; a deliberate wire change rewrites it
// with -update-golden and shows up as a reviewed diff.
func TestGoldenResponses(t *testing.T) {
	// Burst 2 with a refill of one token per ~30 years: each tenant gets
	// exactly two answers, then 429s, whatever the wall clock does.
	s := newTestServer(Config{QuotaRate: 1e-9, QuotaBurst: 2})
	s.Publish(testSnapshot(1))
	s.Publish(testSnapshot(2))
	mux := s.Mux()

	var out bytes.Buffer
	fire := func(path, tenant string) {
		req := httptest.NewRequest("GET", path, nil)
		req.Header.Set("X-Grist-Tenant", tenant)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		fmt.Fprintf(&out, "GET %s (tenant %s)\n%d\n", path, tenant, rec.Code)
		var hdr []string
		for name, vals := range rec.Header() {
			if strings.HasPrefix(name, "X-Grist-") || name == "Retry-After" || name == "Content-Type" {
				hdr = append(hdr, name+": "+strings.Join(vals, ", "))
			}
		}
		sort.Strings(hdr)
		fmt.Fprintf(&out, "%s\n%s\n", strings.Join(hdr, "\n"), rec.Body.String())
	}
	for _, ep := range []struct{ name, ok, bad, missing string }{
		{"point", "/v1/point?lat=10&lon=20&field=t_sfc", "/v1/point?lat=banana", "/v1/point?lat=10&lon=20&epoch=99"},
		{"region", "/v1/region?min_lat=0&max_lat=12&min_lon=0&max_lon=15&epoch=1&limit=3", "/v1/region?min_lat=40&max_lat=10", "/v1/region?epoch=99"},
		{"range", "/v1/range?lat=-30&lon=100&from=1&to=2&field=w_max", "/v1/range?lat=0&lon=0&from=x", "/v1/range?lat=0&lon=0&from=50&to=60"},
	} {
		fire(ep.ok, ep.name+"-a")      // build
		fire(ep.ok, ep.name+"-a")      // hit
		fire(ep.ok, ep.name+"-a")      // 429: burst spent
		fire(ep.bad, ep.name+"-b")     // 400
		fire(ep.missing, ep.name+"-b") // 404
	}
	fire("/v1/epochs", "epochs-a")
	fire("/v1/epochs", "epochs-a")
	fire("/v1/epochs", "epochs-a") // 429

	path := filepath.Join("testdata", "golden_responses.txt")
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		line := func(lines []string) string {
			if i < len(lines) {
				return lines[i]
			}
			return "<end of file>"
		}
		t.Fatalf("responses differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, line(g), line(w))
	}
}
