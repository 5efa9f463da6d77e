package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it; fewer than twenty samples resolve only the median.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 50}, {14, 50}, {20, 50}, {30, 66}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {6000, 99}, {1 << 20, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 50 && c.n-rankOf(c.n, p) < 10 {
			t.Errorf("tailPercentile(%d) = p%g leaves fewer than ten samples beyond it", c.n, p)
		}
	}
}

// The quiet quartile is the third-best of twelve latencies and the
// fourth-best of sixteen rates, whatever the rest read.
func TestQuietQuartile(t *testing.T) {
	lat := []float64{9, 1, 7, 3, 5, 11, 2, 8, 4, 10, 6, 12}
	if got := quietQuartile(lat, false); got != 3 {
		t.Errorf("lower quartile of 1..12 = %g, want 3", got)
	}
	rates := make([]float64, 16)
	for i := range rates {
		rates[i] = float64(100 * (i + 1))
	}
	rates[0], rates[5] = 1, 2 // two windows the host stalled in
	if got := quietQuartile(rates, true); got != 1300 {
		t.Errorf("upper quartile of 16 window rates = %g, want 1300", got)
	}
	if got := quietQuartile([]float64{7}, true); got != 7 {
		t.Errorf("quartile of one reading = %g, want 7", got)
	}
	if !math.IsNaN(quietQuartile(nil, false)) {
		t.Error("quartile of no readings must be NaN")
	}
}

func TestSegmentPercentilesIsolateOneBadSecond(t *testing.T) {
	var samples []timed
	for seg := 0; seg < 5; seg++ {
		for i := 0; i < 100; i++ {
			lat := 1.0 + float64(i)/100 // 1.00 .. 1.99 ms
			if seg == 3 {
				lat *= 50 // one second of stall
			}
			samples = append(samples, timed{dueS: float64(seg) + float64(i)/100, latencyMS: lat})
		}
	}
	p50 := segmentPercentiles(samples, 1, 5, 50)
	for i, want := range []float64{1.49, 1.49, 1.49, 74.5, 1.49} {
		if math.Abs(p50[i]-want) > 1e-9 {
			t.Fatalf("per-segment p50 = %v, want 1.49 except 74.5 in the stalled second", p50)
		}
	}
	if got := quietQuartile(p50, false); math.Abs(got-1.49) > 1e-9 {
		t.Errorf("quiet quartile of segment medians = %g, want 1.49", got)
	}
	// A window nothing was served in reads +Inf, as does a failed request.
	holes := segmentPercentiles([]timed{{0.5, 1}, {2.5, math.Inf(1)}}, 1, 3, 50)
	if holes[0] != 1 || !math.IsInf(holes[1], 1) || !math.IsInf(holes[2], 1) {
		t.Errorf("segments with no or failed samples = %v, want [1 +Inf +Inf]", holes)
	}
}

// fakeClock advances only when the scheduler sleeps or a request takes
// time, so the open loop's accounting can be checked exactly.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }
func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

// Requests are timed from when they were due. A stalled answer must
// lengthen the latencies of the requests queued behind it, although
// their own service is fast.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{}
	due := []float64{0.001, 0.002, 0.003, 0.004, 0.005, 0.020}
	service := []time.Duration{100 * time.Microsecond, 100 * time.Microsecond, 10 * time.Millisecond,
		100 * time.Microsecond, 100 * time.Microsecond, 100 * time.Microsecond}
	samples, lag := openLoopConn(clk, due, func(i int) bool {
		clk.t += service[i]
		return i != 4 // the fifth request fails
	})
	wantLat := []float64{0.1, 0.1, 10, 9.1, math.Inf(1), 0.1}
	wantLag := []float64{0, 0, 0, 9, 8.1, 0}
	for i := range due {
		if d := samples[i].latencyMS - wantLat[i]; !(math.Abs(d) < 1e-9 || samples[i].latencyMS == wantLat[i]) {
			t.Errorf("request %d: latency %g ms, want %g", i, samples[i].latencyMS, wantLat[i])
		}
		if math.Abs(lag[i]-wantLag[i]) > 1e-9 {
			t.Errorf("request %d: generator lag %g ms, want %g", i, lag[i], wantLag[i])
		}
		if samples[i].dueS != due[i] {
			t.Errorf("request %d: filed under due time %g, want %g", i, samples[i].dueS, due[i])
		}
	}
}

func TestOpenScheduleIsSeededAndOrdered(t *testing.T) {
	a, b, c := openSchedule(7, 0, 3000, 2), openSchedule(7, 0, 3000, 2), openSchedule(8, 0, 3000, 2)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed must give the same schedule")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("another seed must give another schedule")
	}
	if len(a) != 6000 {
		t.Fatalf("%d due times, want 6000", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatalf("due times not increasing at %d: %g after %g", i, a[i], a[i-1])
		}
	}
	if a[len(a)-1] >= 2 {
		t.Errorf("last request due at %g s, beyond the 2 s phase", a[len(a)-1])
	}
}

// Self time is the span minus what its children cover: overlapping
// children count once, a child reaching past its parent is clipped, and
// grandchildren are charged to their own parent only.
func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "bench.epoch", Workload: "w", Start: 0, End: 100, Parent: -1},
		{Name: "core.write_shard", Workload: "w", Start: 10, End: 30, Parent: 0},
		{Name: "core.commit", Workload: "w", Start: 20, End: 50, Parent: 0},
		{Name: "serve.poll", Workload: "w", Start: 90, End: 120, Parent: 0},
		{Name: "vfs.write", Workload: "w", Start: 12, End: 22, Parent: 1},
		{Name: "serve.other", Workload: "elsewhere", Start: 0, End: 1000, Parent: -1},
	}
	self := selfTimes(spans)
	if want := []int64{50, 10, 30, 30, 10, 1000}; !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	shares := layerShares(spans, "w")
	want := map[string]float64{"bench": 50.0 / 130, "core": 40.0 / 130, "serve": 30.0 / 130, "vfs": 10.0 / 130}
	for l, w := range want {
		if math.Abs(shares[l]-w) > 1e-12 {
			t.Errorf("share of %s = %g, want %g", l, shares[l], w)
		}
	}
}

func TestRecorderNilIsOffAndReplayNests(t *testing.T) {
	var off *recorder
	id := off.begin("x", noSpan, 0)
	off.end(id)
	if id != noSpan || off.replay("y", id, 0, 5, time.Second) != 5 {
		t.Error("a nil recorder must record nothing")
	}
	now := int64(0)
	rec := newRecorder()
	rec.now = func() int64 { now += 100; return now }
	rec.setWorkload("w")
	root := rec.begin("core.phys_step", noSpan, 0)
	rec.end(root)
	cur := rec.replay("dycore.dynamics", root, 0, rec.startOf(root), 60)
	rec.replay("tracer.transport", root, 0, cur, 30)
	if self := selfTimes(rec.spans); !reflect.DeepEqual(self, []int64{10, 60, 30}) {
		t.Errorf("self times with replayed children = %v, want [10 60 30]", self)
	}
	path := t.TempDir() + "/trace.json"
	if err := rec.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) != 3 {
		t.Fatalf("trace file: %v, %d events, want 3", err, len(doc.TraceEvents))
	}
	if ev := doc.TraceEvents[1]; ev["name"] != "dycore.dynamics" || ev["ph"] != "X" || ev["cat"] != "w" {
		t.Errorf("second event = %v", ev)
	}
}

// The -sets rule: two readings agree when neither is worse than the
// other by more than the metric's bound, whichever direction is better.
func TestBoundComparison(t *testing.T) {
	if got := worseBy(100, 90, true); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("throughput 100 -> 90 is worse by %g, want 0.10", got)
	}
	if got := worseBy(100, 110, true); got >= 0 {
		t.Errorf("throughput 100 -> 110 must not read as worse, got %g", got)
	}
	if got := worseBy(2.0, 2.3, false); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("latency 2.0 -> 2.3 is worse by %g, want 0.15", got)
	}
	if !math.IsInf(worseBy(0, 1, false), 1) || worseBy(0, 0, false) != 0 {
		t.Error("a zero base must read as equal only to zero")
	}
	for _, c := range []struct {
		a, b, bound float64
		want        bool
	}{{100, 104, 0.05, true}, {104, 100, 0.05, true}, {100, 106, 0.05, false}, {106, 100, 0.05, false}, {1, 1, 0, true}} {
		if got := agree(c.a, c.b, c.bound); got != c.want {
			t.Errorf("agree(%g, %g, %g) = %v, want %v", c.a, c.b, c.bound, got, c.want)
		}
	}
}

func TestTraceFlagTakesAnOptionalValue(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"--workload x --seed 3 --seconds 10 --trace 1", "--workload x --seed 3 --seconds 10 -trace=1"},
		{"-trace 0 -seed 3", "-trace=0 -seed 3"},
		{"-seed 3 -trace", "-seed 3 -trace"},
		{"-trace -smoke", "-trace -smoke"},
	} {
		if got := strings.Join(normalizeArgs(strings.Fields(c.in)), " "); got != c.want {
			t.Errorf("normalizeArgs(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// The load generator's client must frame both kinds of body the daemon
// sends: Content-Length for small answers, chunked for region answers.
func TestConnReadsLengthAndChunkedBodies(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 1<<10) // 16 KiB: net/http chunks it
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Grist-Cache", r.URL.Query().Get("cache"))
		switch r.URL.Path {
		case "/small":
			fmt.Fprint(w, `{"ok":true}`)
		case "/big":
			fmt.Fprint(w, big)
		default:
			http.Error(w, "nope", 429)
		}
	}))
	defer srv.Close()
	c := newConn(srv.URL)
	defer c.close()
	for i := 0; i < 3; i++ { // keep-alive: the same connection serves every request
		status, body, cache, err := c.get("/small?cache=hit")
		if err != nil || status != 200 || string(body) != `{"ok":true}` || cache != "hit" {
			t.Fatalf("small: %d %q %q %v", status, body, cache, err)
		}
		status, body, cache, err = c.get("/big?cache=build")
		if err != nil || status != 200 || string(body) != big || cache != "build" {
			t.Fatalf("big: %d, %d bytes, %q, %v", status, len(body), cache, err)
		}
		if status, _, _, err = c.get("/refused"); err != nil || status != 429 {
			t.Fatalf("refused: %d %v", status, err)
		}
	}
}

// BENCHMARK.json is the contract other changes are judged against; it
// must name exactly what this program measures.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why == "" || len(spec.Workloads[i].Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), want %q", i, spec.Workloads[i].Name, len(spec.Workloads[i].Why), w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != better(d.HigherBetter) || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v, want %+v", i, got, d)
		}
	}
	layers := append(append([]metricDef(nil), ladderMetrics...), replayMetrics...)
	if len(spec.PerLayer) != len(layers) || len(layers) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program (limit 128)", len(spec.PerLayer), len(layers))
	}
	for i, d := range layers {
		got := spec.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != better(d.HigherBetter) {
			t.Errorf("per-layer %d: %+v, want %s %s %s", i, got, d.Name, d.Unit, better(d.HigherBetter))
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}

// The smoke run drives every call site of the real run — all six
// workloads untraced, then the layer ladder and a traced replay — on G3
// meshes with the in-process server, and must come back clean.
func TestSmoke(t *testing.T) {
	defer cleanups.run()
	if code := run([]string{"-smoke", "-seed", "5"}); code != 0 {
		t.Fatalf("untraced smoke run exited %d", code)
	}
	if code := run([]string{"-smoke", "-seed", "5", "-workload", "ckpt_pipeline_g6l20_r4", "-trace", "1"}); code != 0 {
		t.Fatalf("traced smoke run exited %d", code)
	}
	if code := run([]string{"-workload", "nonesuch"}); code != 2 {
		t.Errorf("unknown workload exited %d, want 2", code)
	}
}
