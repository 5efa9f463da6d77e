package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
)

// The synthetic workload: point queries (plus a sprinkle of region and
// time-range ones) with a hotspot structure, spread over tenants, one
// of which is greedy enough to exhaust its quota.
const (
	loadWorkers  = 8    // concurrent clients
	loadTenants  = 4    // well-behaved tenants
	loadGreedy   = 0.05 // fraction of traffic from the "greedy" tenant
	loadHotFrac  = 0.8  // fraction of point queries aimed at hotspots
	loadHotspots = 16   // distinct hot locations
	loadRegion   = 0.01 // fraction of region queries
	loadRange    = 0.02 // fraction of time-range queries
)

// loadReport counts one replay's answers by status. It measures no
// time: query-plane speed is the benchmark's, over a real socket.
type loadReport struct {
	OK, Client4xx, Quota429, Busy429, Breaker503, Server5xx int64
}

// add accumulates b's counts into r.
func (r *loadReport) add(b loadReport) {
	r.OK += b.OK
	r.Client4xx += b.Client4xx
	r.Quota429 += b.Quota429
	r.Busy429 += b.Busy429
	r.Breaker503 += b.Breaker503
	r.Server5xx += b.Server5xx
}

// count files one answer under its status class. reason is the
// response's X-Grist-Reject header, falling back to X-Grist-Cache.
func (r *loadReport) count(status int, reason string) {
	switch {
	case status >= 200 && status < 300:
		r.OK++
	case status == 429:
		// quota vs queue: the server tags the reason.
		if reason == "quota" {
			r.Quota429++
		} else {
			r.Busy429++
		}
	case status >= 400 && status < 500:
		r.Client4xx++
	case status == 503 && reason == CacheBreaker:
		// Breaker-keyed shedding is intentional degradation, not an
		// unexplained 5xx.
		r.Breaker503++
	default:
		r.Server5xx++
	}
}

// genQuery renders one query path from the workload mix.
func genQuery(rng *rand.Rand, hotLat, hotLon []float64, epochs []int) string {
	epochArg := ""
	if len(epochs) > 0 && rng.Float64() < 0.3 {
		epochArg = fmt.Sprintf("&epoch=%d", epochs[rng.Intn(len(epochs))])
	}
	field := FieldNames[rng.Intn(NumFields)]
	r := rng.Float64()
	switch {
	case r < loadRegion:
		lat := rng.Float64()*120 - 60
		lon := rng.Float64()*300 - 150
		return fmt.Sprintf("/v1/region?min_lat=%.2f&max_lat=%.2f&min_lon=%.2f&max_lon=%.2f&field=%s&limit=256%s",
			lat, lat+10, lon, lon+10, field, epochArg)
	case r < loadRegion+loadRange:
		i := rng.Intn(len(hotLat))
		return fmt.Sprintf("/v1/range?lat=%.4f&lon=%.4f&field=%s", hotLat[i], hotLon[i], field)
	default:
		var lat, lon float64
		if rng.Float64() < loadHotFrac {
			i := rng.Intn(len(hotLat))
			lat, lon = hotLat[i]+rng.Float64()*0.2, hotLon[i]+rng.Float64()*0.2
		} else {
			lat, lon = rng.Float64()*170-85, rng.Float64()*358-179
		}
		return fmt.Sprintf("/v1/point?lat=%.4f&lon=%.4f&field=%s%s", lat, lon, field, epochArg)
	}
}

// nullRecorder is a reusable allocation-light http.ResponseWriter for
// the in-process replay: it keeps status and headers, discards bodies.
type nullRecorder struct {
	hdr    http.Header
	status int
}

func (r *nullRecorder) Header() http.Header { return r.hdr }

func (r *nullRecorder) Write(b []byte) (int, error) { return len(b), nil }

func (r *nullRecorder) WriteHeader(c int) { r.status = c }

func (r *nullRecorder) reset() {
	r.status = 200
	clear(r.hdr)
}

// runLoadInProcess replays queries of the workload directly against h
// (no sockets), split over loadWorkers goroutines, through the full
// admission/quota/cache pipeline, and counts the answers by status.
// The same seed replays the same queries.
func runLoadInProcess(h http.Handler, eng *Engine, queries int, seed int64) loadReport {
	epochs := eng.Store().Epochs()
	hotLat := make([]float64, loadHotspots)
	hotLon := make([]float64, loadHotspots)
	hrng := rand.New(rand.NewSource(seed))
	for i := range hotLat {
		hotLat[i] = hrng.Float64()*140 - 70
		hotLon[i] = hrng.Float64()*358 - 179
	}

	outs := make([]loadReport, loadWorkers)
	var wg sync.WaitGroup
	for w := range outs {
		n := queries / loadWorkers
		if w < queries%loadWorkers {
			n++
		}
		wg.Add(1)
		go func(out *loadReport, w, n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			rec := &nullRecorder{hdr: http.Header{}}
			req := &http.Request{Method: "GET", URL: &url.URL{}, Header: http.Header{}}
			for i := 0; i < n; i++ {
				path := genQuery(rng, hotLat, hotLon, epochs)
				tenant := fmt.Sprintf("tenant-%d", rng.Intn(loadTenants))
				if rng.Float64() < loadGreedy {
					tenant = "greedy"
				}
				u, err := url.Parse(path)
				if err != nil {
					out.count(400, "")
					continue
				}
				*req.URL = *u
				req.Header.Set("X-Grist-Tenant", tenant)
				rec.reset()
				h.ServeHTTP(rec, req)
				reason := rec.hdr.Get("X-Grist-Reject")
				if reason == "" {
					reason = rec.hdr.Get("X-Grist-Cache")
				}
				out.count(rec.status, reason)
			}
		}(&outs[w], w, n)
	}
	wg.Wait()

	var rep loadReport
	for _, o := range outs {
		rep.add(o)
	}
	return rep
}
