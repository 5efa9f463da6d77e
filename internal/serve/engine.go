package serve

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"gristgo/internal/mesh"
)

// Error is a query-plane failure with its HTTP status. Engine methods
// return *Error so the transport layer maps causes to codes without
// string matching; everything here is a client error (4xx) except the
// single breaker-shed 503, which is scoped to one tile key and carries
// a Retry-After.
type Error struct {
	Code int    `json:"code"`
	Msg  string `json:"error"`

	// RetryAfter, when positive, is the Retry-After header value in
	// seconds (set on breaker-shed 503s only).
	RetryAfter int `json:"-"`
}

func (e *Error) Error() string { return e.Msg }

func badRequest(format string, args ...any) *Error {
	return &Error{Code: 400, Msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) *Error {
	return &Error{Code: 404, Msg: fmt.Sprintf(format, args...)}
}

// unavailable is the one 5xx the engine can produce: a tile build
// breaker is open for the requested key. RetryAfter carries the
// remaining cooldown for the Retry-After header.
func unavailable(retryAfter time.Duration, format string, args ...any) *Error {
	secs := int(retryAfter/time.Second) + 1
	return &Error{Code: 503, Msg: fmt.Sprintf(format, args...), RetryAfter: secs}
}

// Cache-status values reported per query (the X-Grist-Cache header).
const (
	CacheHit       = "hit"       // served from the tile cache
	CacheCoalesced = "coalesced" // joined another request's build
	CacheBuild     = "build"     // led a tile materialization
	CacheBreaker   = "breaker"   // shed: the build breaker is open for this key
)

// Engine answers point, region and time-range queries over the
// retained snapshots: locate -> tile -> cached value. All methods are
// safe for arbitrary concurrency and never mutate snapshot state.
type Engine struct {
	store   *SnapshotStore
	tiler   *Tiler
	cache   *TileCache
	flight  *flightGroup
	breaker *buildBreaker

	builds atomic.Int64
}

// NewEngine assembles an engine over store with ntiles spatial tiles
// and a capTiles-entry cache. The build breaker starts at the default
// threshold/cooldown; SetBreaker tunes it.
func NewEngine(m *mesh.Mesh, store *SnapshotStore, ntiles, capTiles int, seed int64) *Engine {
	return &Engine{
		store:   store,
		tiler:   NewTiler(m, ntiles, seed),
		cache:   NewTileCache(capTiles),
		flight:  newFlightGroup(),
		breaker: newBuildBreaker(DefaultBreakerThreshold, DefaultBreakerCooldown),
	}
}

// Default build-breaker tuning: three consecutive failures open a
// key's breaker for half a second.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 500 * time.Millisecond
)

// SetBreaker replaces the build breaker's tuning. Call before serving
// traffic; it resets accumulated failure state.
func (e *Engine) SetBreaker(threshold int, cooldown time.Duration) {
	e.breaker = newBuildBreaker(threshold, cooldown)
}

// Store returns the engine's snapshot store (the publish side).
func (e *Engine) Store() *SnapshotStore { return e.store }

// Tiler returns the engine's tiler (shared, read-only).
func (e *Engine) Tiler() *Tiler { return e.tiler }

// tile returns the materialized tile for (snap.Epoch, tile, field),
// from cache when possible, coalescing concurrent builds of the same
// key into one. A build that errors or panics feeds the per-key
// breaker; once it opens, requests for that key are shed with a 503 +
// Retry-After while every other key keeps serving. A non-nil qt gets
// the per-tile outcome counted and a build's wall time recorded as a
// phase; the goroutine materializing a tile carries a
// grist_phase=tile_build pprof label so CPU profiles split build time
// from lookup time.
func (e *Engine) tile(snap *Snapshot, tile int32, field int, qt *QueryTrace) (*Tile, string, *Error) {
	k := TileKey{Epoch: int32(snap.Epoch), Tile: tile, Field: uint8(field)}
	if t := e.cache.Get(k); t != nil {
		qt.countTile(CacheHit)
		return t, CacheHit, nil
	}
	if wait, ok := e.breaker.allow(k); !ok {
		qt.countTile(CacheBreaker)
		return nil, CacheBreaker, unavailable(wait, "tile build for epoch %d tile %d field %d is shedding (breaker open)", k.Epoch, k.Tile, k.Field)
	}
	c, leader := e.flight.lead(k)
	status := CacheCoalesced
	if leader {
		status = CacheBuild
		t0 := time.Now()
		t, err := e.buildTile(k, snap, tile)
		if err != nil {
			e.breaker.failure(k)
		} else {
			e.breaker.success(k)
			e.builds.Add(1)
			e.cache.Add(t)
			qt.phase("tile_build", time.Since(t0))
		}
		e.flight.finish(k, c, t, err)
	} else {
		<-c.done
	}
	if c.err != nil {
		qt.countTile(CacheBreaker)
		return nil, CacheBreaker, unavailable(e.breaker.cooldown, "tile build for epoch %d tile %d field %d failed: %v", k.Epoch, k.Tile, k.Field, c.err)
	}
	qt.countTile(status)
	return c.tile, status, nil
}

// buildTile materializes one tile, converting a panic (a malformed
// snapshot indexing out of range) into an error so one poisoned key
// cannot take the process down.
func (e *Engine) buildTile(k TileKey, snap *Snapshot, tile int32) (t *Tile, err error) {
	defer func() {
		if r := recover(); r != nil {
			t, err = nil, fmt.Errorf("build panic: %v", r)
		}
	}()
	pprof.Do(context.Background(), pprof.Labels("grist_phase", "tile_build"), func(context.Context) {
		t = NewTile(k, snap, e.tiler.TileCells(tile))
	})
	return t, nil
}

// snapshotAt resolves an epoch argument: negative means latest.
func (e *Engine) snapshotAt(epoch int) (*Snapshot, *Error) {
	if epoch < 0 {
		if s := e.store.Latest(); s != nil {
			return s, nil
		}
		return nil, notFound("no snapshot published yet")
	}
	if s, ok := e.store.At(epoch); ok {
		return s, nil
	}
	return nil, notFound("epoch %d is not retained (have %v)", epoch, e.store.Epochs())
}

// checkLatLon validates degree coordinates and converts to radians,
// normalizing longitude into [-180, 180).
func checkLatLon(latDeg, lonDeg float64) (lat, lon float64, err *Error) {
	if math.IsNaN(latDeg) || latDeg < -90 || latDeg > 90 {
		return 0, 0, badRequest("lat %v out of range [-90, 90]", latDeg)
	}
	if math.IsNaN(lonDeg) || lonDeg < -360 || lonDeg > 360 {
		return 0, 0, badRequest("lon %v out of range [-360, 360]", lonDeg)
	}
	for lonDeg >= 180 {
		lonDeg -= 360
	}
	for lonDeg < -180 {
		lonDeg += 360
	}
	return latDeg * math.Pi / 180, lonDeg * math.Pi / 180, nil
}

// PointResult is one point query's answer: the value of one field at
// the mesh cell nearest the query coordinates.
type PointResult struct {
	Epoch  int     `json:"epoch"`
	Step   int     `json:"step"`
	Field  string  `json:"field"`
	Cell   int32   `json:"cell"`
	LatDeg float64 `json:"lat_deg"` // cell-center coordinates
	LonDeg float64 `json:"lon_deg"`
	Value  float64 `json:"value"`
}

// Point answers a point query at degree coordinates; epoch < 0 means
// the latest snapshot. The returned cache status is one of the
// Cache* constants.
func (e *Engine) Point(epoch int, field string, latDeg, lonDeg float64) (PointResult, string, *Error) {
	return e.PointT(nil, epoch, field, latDeg, lonDeg)
}

// PointT is Point with request-scoped tracing: a non-nil qt collects
// the tile outcomes and build phases of this query.
func (e *Engine) PointT(qt *QueryTrace, epoch int, field string, latDeg, lonDeg float64) (PointResult, string, *Error) {
	f, ok := FieldID(field)
	if !ok {
		return PointResult{}, "", badRequest("unknown field %q (have %v)", field, FieldNames)
	}
	lat, lon, perr := checkLatLon(latDeg, lonDeg)
	if perr != nil {
		return PointResult{}, "", perr
	}
	snap, serr := e.snapshotAt(epoch)
	if serr != nil {
		return PointResult{}, "", serr
	}
	c := e.tiler.Locate(lat, lon)
	t, status, terr := e.tile(snap, e.tiler.TileOfCell(c), f, qt)
	if terr != nil {
		return PointResult{}, status, terr
	}
	m := e.tiler.m
	return PointResult{
		Epoch:  snap.Epoch,
		Step:   snap.Step,
		Field:  field,
		Cell:   c,
		LatDeg: m.CellLat[c] * 180 / math.Pi,
		LonDeg: m.CellLon[c] * 180 / math.Pi,
		Value:  t.Value(e.tiler.LocalIndex(c)),
	}, status, nil
}

// RegionResult is one region query's answer: every cell inside the
// bounding box (up to Limit), with its coordinates and value. All
// slices are freshly allocated copies.
type RegionResult struct {
	Epoch     int       `json:"epoch"`
	Step      int       `json:"step"`
	Field     string    `json:"field"`
	Cells     []int32   `json:"cells"`
	LatDeg    []float64 `json:"lat_deg"`
	LonDeg    []float64 `json:"lon_deg"`
	Values    []float64 `json:"values"`
	Truncated bool      `json:"truncated"`
}

// DefaultRegionLimit bounds a region response when the client does not
// pass an explicit limit.
const DefaultRegionLimit = 4096

// Region answers a bounding-box query in degrees (minLon <= maxLon;
// dateline-crossing boxes must be split by the client). The cache
// status is CacheHit only when every touched tile was cached.
func (e *Engine) Region(epoch int, field string, minLatDeg, maxLatDeg, minLonDeg, maxLonDeg float64, limit int) (RegionResult, string, *Error) {
	return e.RegionT(nil, epoch, field, minLatDeg, maxLatDeg, minLonDeg, maxLonDeg, limit)
}

// RegionT is Region with request-scoped tracing.
func (e *Engine) RegionT(qt *QueryTrace, epoch int, field string, minLatDeg, maxLatDeg, minLonDeg, maxLonDeg float64, limit int) (RegionResult, string, *Error) {
	f, ok := FieldID(field)
	if !ok {
		return RegionResult{}, "", badRequest("unknown field %q (have %v)", field, FieldNames)
	}
	if minLatDeg > maxLatDeg || minLonDeg > maxLonDeg {
		return RegionResult{}, "", badRequest("empty box: min corner (%v, %v) beyond max corner (%v, %v)",
			minLatDeg, minLonDeg, maxLatDeg, maxLonDeg)
	}
	lo, ll, perr := checkLatLon(minLatDeg, minLonDeg)
	if perr != nil {
		return RegionResult{}, "", perr
	}
	hi, hl, perr := checkLatLon(maxLatDeg, maxLonDeg)
	if perr != nil {
		return RegionResult{}, "", perr
	}
	if hl < ll || maxLonDeg >= 180 { // max lon normalized across the seam
		hl = math.Pi
	}
	if limit <= 0 {
		limit = DefaultRegionLimit
	}
	snap, serr := e.snapshotAt(epoch)
	if serr != nil {
		return RegionResult{}, "", serr
	}
	res := RegionResult{Epoch: snap.Epoch, Step: snap.Step, Field: field}
	status := CacheHit
	m := e.tiler.m
	for tile := int32(0); tile < int32(e.tiler.NTiles); tile++ {
		if !e.tiler.Overlaps(tile, lo, hi, ll, hl) {
			continue
		}
		t, st, terr := e.tile(snap, tile, f, qt)
		if terr != nil {
			return RegionResult{}, st, terr
		}
		if st != CacheHit {
			status = st
		}
		for i, c := range e.tiler.TileCells(tile) {
			lat, lon := m.CellLat[c], m.CellLon[c]
			if lat < lo || lat > hi || lon < ll || lon > hl {
				continue
			}
			if len(res.Cells) >= limit {
				res.Truncated = true
				return res, status, nil
			}
			res.Cells = append(res.Cells, c)
			res.LatDeg = append(res.LatDeg, lat*180/math.Pi)
			res.LonDeg = append(res.LonDeg, lon*180/math.Pi)
			res.Values = append(res.Values, t.Value(int32(i)))
		}
	}
	return res, status, nil
}

// RangePoint is one epoch's sample of a time-range query.
type RangePoint struct {
	Epoch int     `json:"epoch"`
	Step  int     `json:"step"`
	Value float64 `json:"value"`
}

// RangeResult is one time-range query's answer: the field at one point
// across every retained epoch within [from, to].
type RangeResult struct {
	Field  string       `json:"field"`
	Cell   int32        `json:"cell"`
	LatDeg float64      `json:"lat_deg"`
	LonDeg float64      `json:"lon_deg"`
	Series []RangePoint `json:"series"`
}

// Range answers a time-range query over epochs [from, to] (to < 0
// means the newest retained epoch) at degree coordinates.
func (e *Engine) Range(field string, latDeg, lonDeg float64, from, to int) (RangeResult, string, *Error) {
	return e.RangeT(nil, field, latDeg, lonDeg, from, to)
}

// RangeT is Range with request-scoped tracing.
func (e *Engine) RangeT(qt *QueryTrace, field string, latDeg, lonDeg float64, from, to int) (RangeResult, string, *Error) {
	f, ok := FieldID(field)
	if !ok {
		return RangeResult{}, "", badRequest("unknown field %q (have %v)", field, FieldNames)
	}
	lat, lon, perr := checkLatLon(latDeg, lonDeg)
	if perr != nil {
		return RangeResult{}, "", perr
	}
	epochs := e.store.Epochs()
	if len(epochs) == 0 {
		return RangeResult{}, "", notFound("no snapshot published yet")
	}
	if to < 0 {
		to = epochs[len(epochs)-1]
	}
	if from > to {
		return RangeResult{}, "", badRequest("empty range: from %d > to %d", from, to)
	}
	c := e.tiler.Locate(lat, lon)
	tile := e.tiler.TileOfCell(c)
	local := e.tiler.LocalIndex(c)
	m := e.tiler.m
	res := RangeResult{
		Field:  field,
		Cell:   c,
		LatDeg: m.CellLat[c] * 180 / math.Pi,
		LonDeg: m.CellLon[c] * 180 / math.Pi,
	}
	status := CacheHit
	for _, ep := range epochs {
		if ep < from || ep > to {
			continue
		}
		snap, ok := e.store.At(ep)
		if !ok {
			continue // evicted between Epochs() and At()
		}
		t, st, terr := e.tile(snap, tile, f, qt)
		if terr != nil {
			return RangeResult{}, st, terr
		}
		if st != CacheHit {
			status = st
		}
		res.Series = append(res.Series, RangePoint{Epoch: snap.Epoch, Step: snap.Step, Value: t.Value(local)})
	}
	if len(res.Series) == 0 {
		return RangeResult{}, "", notFound("no retained epoch in [%d, %d] (have %v)", from, to, epochs)
	}
	return res, status, nil
}

// EngineStats is a snapshot of the engine's cache and coalescing
// counters.
type EngineStats struct {
	Hits         int64 `json:"tile_hits"`
	Misses       int64 `json:"tile_misses"`
	Builds       int64 `json:"tile_builds"`
	Coalesced    int64 `json:"coalesced"`
	Evictions    int64 `json:"evictions"`
	Cached       int   `json:"tiles_cached"`
	BreakerTrips int64 `json:"breaker_trips"`
	BreakerShed  int64 `json:"breaker_shed"`
}

// Stats returns the cumulative engine counters.
func (e *Engine) Stats() EngineStats {
	h, m, ev := e.cache.Stats()
	trips, shed := e.breaker.Stats()
	return EngineStats{
		Hits:         h,
		Misses:       m,
		Builds:       e.builds.Load(),
		Coalesced:    e.flight.Coalesced(),
		Evictions:    ev,
		Cached:       e.cache.Len(),
		BreakerTrips: trips,
		BreakerShed:  shed,
	}
}

// HitRate returns the cache hit fraction (0 when idle).
func (s EngineStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// CoalesceRatio returns the fraction of cache misses that joined an
// in-flight build instead of starting their own.
func (s EngineStats) CoalesceRatio() float64 {
	if s.Misses == 0 {
		return 0
	}
	return float64(s.Coalesced) / float64(s.Misses)
}
