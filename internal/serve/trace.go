package serve

// Request-scoped query tracing: every admitted query gets a trace ID
// (client-provided X-Grist-Trace or server-generated), a phase timeline
// through the admission pipeline (quota -> queue -> handler) and the
// engine's tile path (hit / coalesced / build counts, build time), and
// a slot in a fixed ring of recent traces served at /debug/query.
// The latency histograms record the trace ID as an exemplar, so a p99
// outlier on the dashboard resolves to a concrete inspectable query.

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gristgo/internal/detrand"
)

// TracePhase is one timed segment of a query's lifecycle.
type TracePhase struct {
	Name  string `json:"name"`
	DurNS int64  `json:"dur_ns"`
}

// QueryTrace is the record of one query through the serve plane. It is
// written by the handling goroutine only; the debug endpoints read the
// copies stored in the trace ring at completion.
type QueryTrace struct {
	ID     string       `json:"id"`
	Kind   string       `json:"kind"`
	Tenant string       `json:"tenant"`
	Start  time.Time    `json:"start"`
	DurNS  int64        `json:"dur_ns"`
	Status int          `json:"status"`
	Cache  string       `json:"cache,omitempty"`
	Phases []TracePhase `json:"phases,omitempty"`

	// Tile-path outcome counts for the query, split by how each touched
	// tile was obtained.
	TileHits      int `json:"tile_hits"`
	TileBuilds    int `json:"tile_builds"`
	TileCoalesced int `json:"tile_coalesced"`

	Err string `json:"error,omitempty"`
}

// phase appends a named duration. Nil-safe so untraced engine calls
// (Engine.Point and friends without a T) cost one predictable check.
func (qt *QueryTrace) phase(name string, dur time.Duration) {
	if qt == nil {
		return
	}
	qt.Phases = append(qt.Phases, TracePhase{Name: name, DurNS: int64(dur)})
}

// countTile records one tile acquisition by cache status.
func (qt *QueryTrace) countTile(status string) {
	if qt == nil {
		return
	}
	switch status {
	case CacheHit:
		qt.TileHits++
	case CacheCoalesced:
		qt.TileCoalesced++
	case CacheBuild:
		qt.TileBuilds++
	}
}

// traceRing retains the last N completed query traces for /debug/query.
type traceRing struct {
	mu   sync.Mutex
	buf  []QueryTrace
	next uint64
	seq  atomic.Uint64
	seed uint64
}

// traceRingSize bounds the retained traces; old entries are overwritten.
const traceRingSize = 256

func newTraceRing(seed int64) *traceRing {
	return &traceRing{buf: make([]QueryTrace, traceRingSize), seed: uint64(seed)}
}

// newID mints a server-generated trace ID: a monotone sequence number
// mixed through the sanctioned splitmix64 stream, rendered as 16 hex
// digits. Unique per server instance; no wall clock involved.
func (tr *traceRing) newID() string {
	n := tr.seq.Add(1)
	return strconv.FormatUint(detrand.Fold(detrand.Step(tr.seed^0x747263), n), 16)
}

// add stores a completed trace (by value: the ring owns its copy).
func (tr *traceRing) add(qt QueryTrace) {
	tr.mu.Lock()
	tr.buf[int(tr.next%uint64(len(tr.buf)))] = qt
	tr.next++
	tr.mu.Unlock()
}

// byID returns the retained trace with the given ID.
func (tr *traceRing) byID(id string) (QueryTrace, bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := tr.next
	if n > uint64(len(tr.buf)) {
		n = uint64(len(tr.buf))
	}
	for i := 0; i < int(n); i++ {
		if tr.buf[i].ID == id {
			return tr.buf[i], true
		}
	}
	return QueryTrace{}, false
}

// recent returns up to limit most-recent traces, newest first.
func (tr *traceRing) recent(limit int) []QueryTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if limit <= 0 || limit > len(tr.buf) {
		limit = len(tr.buf)
	}
	var out []QueryTrace
	for i := int64(tr.next) - 1; i >= 0 && i >= int64(tr.next)-int64(len(tr.buf)) && len(out) < limit; i-- {
		out = append(out, tr.buf[int(uint64(i)%uint64(len(tr.buf)))])
	}
	return out
}

// traceSummary is the list form served by /debug/query: enough to spot
// the outlier, follow the ID for the full phase timeline.
type traceSummary struct {
	ID     string  `json:"id"`
	Kind   string  `json:"kind"`
	Status int     `json:"status"`
	Cache  string  `json:"cache,omitempty"`
	DurMS  float64 `json:"dur_ms"`
}

// RegisterDebug installs the query-trace debug endpoints onto mux:
//
//	GET /debug/query          recent traces, newest first (?limit=N)
//	GET /debug/query/{id}     one full trace by X-Grist-Trace ID
func (s *Server) RegisterDebug(mux *http.ServeMux) {
	mux.HandleFunc("/debug/query", func(w http.ResponseWriter, r *http.Request) {
		a := &args{v: r.URL.Query()}
		limit := a.int("limit", 32)
		if a.err != nil {
			writeJSON(w, a.err.Code, a.err)
			return
		}
		traces := s.traces.recent(limit)
		out := make([]traceSummary, 0, len(traces))
		for _, qt := range traces {
			out = append(out, traceSummary{
				ID: qt.ID, Kind: qt.Kind, Status: qt.Status, Cache: qt.Cache,
				DurMS: float64(qt.DurNS) / 1e6,
			})
		}
		writeJSON(w, 200, out)
	})
	mux.HandleFunc("/debug/query/{id}", func(w http.ResponseWriter, r *http.Request) {
		qt, ok := s.traces.byID(r.PathValue("id"))
		if !ok {
			writeJSON(w, 404, &Error{Code: 404, Msg: "trace not retained (ring keeps the last " +
				strconv.Itoa(traceRingSize) + " queries)"})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(qt)
	})
}
