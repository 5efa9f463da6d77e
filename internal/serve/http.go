package serve

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gristgo/internal/mesh"
	"gristgo/internal/telemetry"
)

// Config sizes one serving plane. The zero value of any field selects
// the default noted on it.
type Config struct {
	Tiles      int     // spatial tiles over the mesh (default 48)
	CacheTiles int     // tile-cache capacity in tiles (default 2x Tiles)
	Retain     int     // snapshot epochs retained (default 8)
	QueueDepth int     // max in-flight queries before 429 (default 256)
	QuotaRate  float64 // per-tenant tokens/second (default 0: unlimited)
	QuotaBurst float64 // per-tenant burst capacity (default 64)
	Seed       int64   // tile decomposition seed (default 12345)

	// MaxStale bounds silent staleness: when the newest published epoch
	// lags more than this many committed epochs behind, the plane enters
	// degraded mode — responses carry X-Grist-Stale and /healthz reports
	// "degraded" (still 200 for LB purposes). Default 4.
	MaxStale int
}

func (c Config) withDefaults() Config {
	if c.Tiles <= 0 {
		c.Tiles = 48
	}
	if c.CacheTiles <= 0 {
		c.CacheTiles = 2 * c.Tiles
	}
	if c.Retain <= 0 {
		c.Retain = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.QuotaBurst <= 0 {
		c.QuotaBurst = 64
	}
	if c.Seed == 0 {
		c.Seed = 12345
	}
	if c.MaxStale <= 0 {
		c.MaxStale = 4
	}
	return c
}

// Server is the HTTP face of the query plane: engine + quotas +
// bounded-queue backpressure + metrics. Every overload answer is a
// 429 with Retry-After — the plane never turns pressure into 5xx.
type Server struct {
	Engine *Engine
	Quotas *Quotas

	queue  chan struct{}
	reg    *telemetry.Registry
	traces *traceRing

	// Degraded-serving state, fed by the poll loop (SetStaleness /
	// SetQuarantine) and read per request and by /healthz.
	maxStale    int
	staleness   atomic.Int64
	quarMu      sync.Mutex
	quarantined []int

	// Metric handles resolved once at construction (hot paths must not
	// take the registry lock per request).
	latency     map[string]*telemetry.Histogram
	hitLatency  *telemetry.Histogram
	queueDepth  *telemetry.Gauge
	queueReject *telemetry.Counter
	quotaReject *telemetry.Counter
	okCount     map[string]*telemetry.Counter
	badCount    map[string]*telemetry.Counter
	shedCount   map[string]*telemetry.Counter
	degradedGge *telemetry.Gauge
}

// queryKinds labels the served endpoints for metrics.
var queryKinds = []string{"point", "region", "range", "epochs"}

// NewServer assembles a serving plane over m, publishing its metrics
// into reg (required — pass a fresh registry if nothing scrapes it).
func NewServer(m *mesh.Mesh, cfg Config, reg *telemetry.Registry) *Server {
	return NewServerOn(m, cfg, NewSnapshotStore(cfg.withDefaults().Retain), reg)
}

// NewServerOn is NewServer serving an existing snapshot store, whose
// retention stands in place of cfg.Retain. A daemon can then publish
// into the store while the server (and its tiler) is still being built.
func NewServerOn(m *mesh.Mesh, cfg Config, store *SnapshotStore, reg *telemetry.Registry) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		Engine:      NewEngine(m, store, cfg.Tiles, cfg.CacheTiles, cfg.Seed),
		Quotas:      NewQuotas(cfg.QuotaRate, cfg.QuotaBurst),
		queue:       make(chan struct{}, cfg.QueueDepth),
		reg:         reg,
		traces:      newTraceRing(cfg.Seed),
		maxStale:    cfg.MaxStale,
		latency:     map[string]*telemetry.Histogram{},
		hitLatency:  reg.Histogram("grist_serve_latency_seconds", "cache", "hit"),
		queueDepth:  reg.Gauge("grist_serve_queue_depth"),
		queueReject: reg.Counter("grist_serve_rejected_total", "reason", "queue_full"),
		quotaReject: reg.Counter("grist_serve_rejected_total", "reason", "quota"),
		okCount:     map[string]*telemetry.Counter{},
		badCount:    map[string]*telemetry.Counter{},
		shedCount:   map[string]*telemetry.Counter{},
		degradedGge: reg.Gauge("grist_serve_degraded"),
	}
	for _, kind := range queryKinds {
		s.latency[kind] = reg.Histogram("grist_serve_latency_seconds", "kind", kind)
		s.okCount[kind] = reg.Counter("grist_serve_requests_total", "kind", kind, "code", "2xx")
		s.badCount[kind] = reg.Counter("grist_serve_requests_total", "kind", kind, "code", "4xx")
		s.shedCount[kind] = reg.Counter("grist_serve_requests_total", "kind", kind, "code", "503")
	}
	return s
}

// SetStaleness feeds the degraded-mode machinery: n is how many
// committed epochs the newest published snapshot lags behind (the
// poller's Staleness()). Crossing MaxStale flips the plane into
// degraded serving.
func (s *Server) SetStaleness(n int) {
	s.staleness.Store(int64(n))
	if n > s.maxStale {
		s.degradedGge.Set(1)
	} else {
		s.degradedGge.Set(0)
	}
}

// SetQuarantine records the currently quarantined epochs for /healthz.
func (s *Server) SetQuarantine(epochs []int) {
	s.quarMu.Lock()
	s.quarantined = append(s.quarantined[:0], epochs...)
	s.quarMu.Unlock()
}

// Degraded reports whether staleness exceeds the configured bound.
func (s *Server) Degraded() bool { return int(s.staleness.Load()) > s.maxStale }

// Publish installs a snapshot and updates the epoch gauge — the
// producer-side entry point (poller or in-process model hook).
func (s *Server) Publish(snap *Snapshot) {
	s.Engine.Store().Publish(snap)
	s.reg.Gauge("grist_serve_snapshot_epoch").Set(float64(snap.Epoch))
	s.reg.Counter("grist_serve_snapshots_total").Inc()
}

// Register installs the query-plane endpoints onto mux (so gristd can
// merge them with the telemetry plane's /metrics and /trace).
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/v1/point", s.wrap("point", s.handlePoint))
	mux.HandleFunc("/v1/region", s.wrap("region", s.handleRegion))
	mux.HandleFunc("/v1/range", s.wrap("range", s.handleRange))
	mux.HandleFunc("/v1/epochs", s.wrap("epochs", s.handleEpochs))
	mux.HandleFunc("/healthz", s.handleHealthz)
}

// Mux returns a fresh mux with just the query-plane endpoints.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	s.Register(mux)
	return mux
}

// maxNameLen bounds the two client-chosen names a request carries into
// server state: the tenant (a quota-table key and a trace field) and an
// inbound trace ID (stored in the trace ring, echoed, and kept as the
// latency histogram's exemplar).
const maxNameLen = 64

// args is one request's query string, parsed once, with a sticky first
// error: a handler reads its parameter list, checks err once, and makes
// one engine call.
type args struct {
	v   url.Values
	err *Error
}

func (a *args) fail(format string, v ...any) {
	if a.err == nil {
		a.err = badRequest(format, v...)
	}
}

// float parses a float parameter; def when absent.
func (a *args) float(name string, def float64) float64 {
	raw := a.v.Get(name)
	if raw == "" {
		return def
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		a.fail("parameter %s=%q is not a number", name, raw)
	}
	return v
}

// int parses an integer parameter; def when absent.
func (a *args) int(name string, def int) int {
	raw := a.v.Get(name)
	if raw == "" {
		return def
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		a.fail("parameter %s=%q is not an integer", name, raw)
	}
	return v
}

// field is the field parameter, defaulting to surface pressure.
func (a *args) field() string {
	if f := a.v.Get("field"); f != "" {
		return f
	}
	return "ps"
}

// tenant is the requesting tenant: the X-Grist-Tenant header, else the
// tenant query parameter, else "anon". A name over maxNameLen is a 400
// (and is truncated, so the oversized string is never retained).
func (a *args) tenant(h http.Header) string {
	t := h.Get("X-Grist-Tenant")
	if t == "" {
		t = a.v.Get("tenant")
	}
	if t == "" {
		return "anon"
	}
	if len(t) > maxNameLen {
		a.fail("tenant name is %d bytes, over the %d-byte limit", len(t), maxNameLen)
		t = t[:maxNameLen]
	}
	return t
}

// validTraceID reports whether an inbound X-Grist-Trace may be honored:
// 1..maxNameLen bytes of [0-9A-Za-z_.-]. Anything else is replaced by a
// minted ID rather than stored and echoed.
func validTraceID(id string) bool {
	if id == "" || len(id) > maxNameLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' || c == '.' || c == '-') {
			return false
		}
	}
	return true
}

// wrap applies the admission pipeline around a query handler: the query
// string parsed once, trace start (a well-formed inbound X-Grist-Trace
// ID is honored, else one is minted; either way it is echoed), quota
// check, bounded-queue admission, latency and result accounting with
// the trace ID recorded as the latency histogram's exemplar, JSON
// encoding. Handlers return (payload, cacheStatus, *Error).
func (s *Server) wrap(kind string, fn func(*args, *QueryTrace) (any, string, *Error)) http.HandlerFunc {
	lat := s.latency[kind]
	ok2xx, bad4xx := s.okCount[kind], s.badCount[kind]
	return func(w http.ResponseWriter, r *http.Request) {
		a := &args{v: r.URL.Query()}
		qt := &QueryTrace{ID: r.Header.Get("X-Grist-Trace"), Kind: kind, Tenant: a.tenant(r.Header), Start: time.Now()}
		if !validTraceID(qt.ID) {
			qt.ID = s.traces.newID()
		}
		w.Header().Set("X-Grist-Trace", qt.ID)
		if stale := int(s.staleness.Load()); stale > s.maxStale {
			// Degraded mode is advertised, never hidden: clients see how
			// many committed epochs the answer lags behind.
			w.Header().Set("X-Grist-Stale", strconv.Itoa(stale))
		}
		if a.err != nil { // oversized tenant: refused before it can key a quota bucket
			bad4xx.Inc()
			s.finishTrace(qt, a.err.Code, "", a.err.Msg)
			writeJSON(w, a.err.Code, a.err)
			return
		}
		t0 := time.Now()
		if !s.Quotas.Allow(qt.Tenant) {
			s.quotaReject.Inc()
			w.Header().Set("Retry-After", "1")
			w.Header().Set("X-Grist-Reject", "quota")
			qt.phase("quota", time.Since(t0))
			s.finishTrace(qt, 429, "", "tenant quota exceeded")
			writeJSON(w, 429, &Error{Code: 429, Msg: "tenant quota exceeded"})
			return
		}
		qt.phase("quota", time.Since(t0))
		tq := time.Now()
		select {
		case s.queue <- struct{}{}:
		default:
			s.queueReject.Inc()
			w.Header().Set("Retry-After", "1")
			w.Header().Set("X-Grist-Reject", "queue")
			qt.phase("queue", time.Since(tq))
			s.finishTrace(qt, 429, "", "server queue full")
			writeJSON(w, 429, &Error{Code: 429, Msg: "server queue full"})
			return
		}
		qt.phase("queue", time.Since(tq))
		s.queueDepth.Set(float64(len(s.queue)))
		t0 = time.Now()
		payload, status, qerr := fn(a, qt)
		dt := time.Since(t0).Seconds()
		qt.phase("handler", time.Since(t0))
		<-s.queue
		lat.ObserveExemplar(dt, qt.ID)
		if qerr != nil {
			if qerr.Code == 503 {
				// Breaker shed: scoped to one tile key, with the cooldown
				// as Retry-After — distinct from 429 backpressure.
				if qerr.RetryAfter > 0 {
					w.Header().Set("Retry-After", strconv.Itoa(qerr.RetryAfter))
				}
				w.Header().Set("X-Grist-Reject", "breaker")
				s.shedCount[kind].Inc()
			} else {
				bad4xx.Inc()
			}
			s.finishTrace(qt, qerr.Code, "", qerr.Msg)
			writeJSON(w, qerr.Code, qerr)
			return
		}
		if status != "" {
			w.Header().Set("X-Grist-Cache", status)
			if status == CacheHit {
				s.hitLatency.ObserveExemplar(dt, qt.ID)
			}
		}
		ok2xx.Inc()
		s.finishTrace(qt, 200, status, "")
		writeJSON(w, 200, payload)
	}
}

// finishTrace seals a query trace and retains a copy in the ring.
func (s *Server) finishTrace(qt *QueryTrace, code int, cache, errMsg string) {
	qt.Status = code
	qt.Cache = cache
	qt.Err = errMsg
	qt.DurNS = int64(time.Since(qt.Start))
	s.traces.add(*qt)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handlePoint(a *args, qt *QueryTrace) (any, string, *Error) {
	lat, lon, epoch, field := a.float("lat", 0), a.float("lon", 0), a.int("epoch", -1), a.field()
	if a.err != nil {
		return nil, "", a.err
	}
	return s.Engine.PointT(qt, epoch, field, lat, lon)
}

func (s *Server) handleRegion(a *args, qt *QueryTrace) (any, string, *Error) {
	minLat, maxLat := a.float("min_lat", -90), a.float("max_lat", 90)
	minLon, maxLon := a.float("min_lon", -180), a.float("max_lon", 180)
	epoch, limit, field := a.int("epoch", -1), a.int("limit", 0), a.field()
	if a.err != nil {
		return nil, "", a.err
	}
	return s.Engine.RegionT(qt, epoch, field, minLat, maxLat, minLon, maxLon, limit)
}

func (s *Server) handleRange(a *args, qt *QueryTrace) (any, string, *Error) {
	lat, lon, from, to, field := a.float("lat", 0), a.float("lon", 0), a.int("from", 0), a.int("to", -1), a.field()
	if a.err != nil {
		return nil, "", a.err
	}
	return s.Engine.RangeT(qt, field, lat, lon, from, to)
}

// epochsResult lists the retained epochs and the served fields — the
// discovery endpoint clients hit first.
type epochsResult struct {
	Epochs []int    `json:"epochs"`
	Fields []string `json:"fields"`
}

func (s *Server) handleEpochs(*args, *QueryTrace) (any, string, *Error) {
	return epochsResult{Epochs: s.Engine.Store().Epochs(), Fields: FieldNames[:]}, "", nil
}

// handleHealthz bypasses quotas and the queue: load balancers must see
// liveness even under full backpressure. 503 while warming up (no
// snapshot yet); 200 afterwards, including degraded mode — a stale
// plane still serves, so it must not flap out of the LB pool. The body
// is machine-readable: status ("ok" or "degraded"), the current
// staleness, the configured bound, and the quarantined epochs.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Engine.Store().Latest() == nil {
		writeJSON(w, 503, map[string]string{"status": "warming", "reason": "no snapshot published yet"})
		return
	}
	s.quarMu.Lock()
	quarantined := append([]int(nil), s.quarantined...)
	s.quarMu.Unlock()
	stale := int(s.staleness.Load())
	status := "ok"
	if stale > s.maxStale {
		status = "degraded"
	}
	writeJSON(w, 200, map[string]any{
		"status":       status,
		"stale_epochs": stale,
		"max_stale":    s.maxStale,
		"quarantined":  quarantined,
	})
}
