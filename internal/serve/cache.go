package serve

import (
	"sync"
	"sync/atomic"
)

// TileKey identifies one cached tile: the field of one tile of one
// snapshot epoch. Compact and comparable — the map key of the cache
// and the coalescing group.
type TileKey struct {
	Epoch int32
	Tile  int32
	Field uint8
}

// Tile is one immutable materialized cache entry: the values of one
// field over one tile's cells (aligned with Tiler.TileCells order).
// The value slice is private; readers use Value or AppendValues.
type Tile struct {
	key  TileKey
	vals []float64

	// LRU intrusive list links, owned by TileCache.
	prev, next *Tile
}

// NewTile materializes a tile by copying the field values of the given
// cells out of snap.
func NewTile(k TileKey, snap *Snapshot, cells []int32) *Tile {
	t := &Tile{key: k, vals: make([]float64, len(cells))}
	for i, c := range cells {
		t.vals[i] = snap.Value(int(k.Field), c)
	}
	return t
}

// Value returns the tile value at local cell index i.
func (t *Tile) Value(i int32) float64 { return t.vals[i] }

// Len returns the tile's cell count.
func (t *Tile) Len() int { return len(t.vals) }

// AppendValues appends a copy of the tile's values to dst — the only
// way bulk data leaves a tile, so callers can never alias the cache.
func (t *Tile) AppendValues(dst []float64) []float64 {
	return append(dst, t.vals...)
}

// TileCache is a bounded LRU cache of materialized tiles keyed by
// (epoch, tile, field). Lookup is the serving hot path: one short
// critical section moving the entry to the front of an intrusive
// list — no allocation, no rehashing.
type TileCache struct {
	mu      sync.Mutex
	cap     int
	entries map[TileKey]*Tile
	head    *Tile // most recent
	tail    *Tile // eviction candidate

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// NewTileCache returns a cache bounded to capTiles entries (min 1).
func NewTileCache(capTiles int) *TileCache {
	if capTiles < 1 {
		capTiles = 1
	}
	return &TileCache{cap: capTiles, entries: make(map[TileKey]*Tile, capTiles+1)}
}

// Get returns the cached tile under k, or nil on a miss, promoting a
// hit to most-recently-used.
func (c *TileCache) Get(k TileKey) *Tile {
	c.mu.Lock()
	t := c.entries[k]
	if t != nil {
		c.unlink(t)
		c.pushFront(t)
	}
	c.mu.Unlock()
	if t != nil {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return t
}

// Add installs t as most-recently-used, evicting from the tail beyond
// capacity. Adding an already-present key keeps the existing entry
// (the first materialization wins; both are immutable and equal).
func (c *TileCache) Add(t *Tile) {
	c.mu.Lock()
	if _, ok := c.entries[t.key]; ok {
		c.mu.Unlock()
		return
	}
	c.entries[t.key] = t
	c.pushFront(t)
	for len(c.entries) > c.cap {
		victim := c.tail
		c.unlink(victim)
		delete(c.entries, victim.key)
		c.evictions.Add(1)
	}
	c.mu.Unlock()
}

// unlink removes t from the LRU list. Caller holds mu.
func (c *TileCache) unlink(t *Tile) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		c.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		c.tail = t.prev
	}
	t.prev, t.next = nil, nil
}

// pushFront makes t the most-recently-used entry. Caller holds mu.
func (c *TileCache) pushFront(t *Tile) {
	t.next = c.head
	if c.head != nil {
		c.head.prev = t
	}
	c.head = t
	if c.tail == nil {
		c.tail = t
	}
}

// Len returns the number of cached tiles.
func (c *TileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns cumulative hit/miss/eviction counts.
func (c *TileCache) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// flightCall is one in-flight tile materialization; joiners wait on
// done and read tile/err afterwards.
type flightCall struct {
	done chan struct{}
	tile *Tile
	err  error
}

// flightGroup coalesces concurrent materializations of the same tile
// key into one build (singleflight): the first caller becomes the
// leader, everyone else joins and waits for its result.
type flightGroup struct {
	mu       sync.Mutex
	inflight map[TileKey]*flightCall

	coalesced atomic.Int64
}

func newFlightGroup() *flightGroup {
	return &flightGroup{inflight: make(map[TileKey]*flightCall)}
}

// lead returns the in-flight call for k and false — the caller joins it
// and waits on done — or registers a new call and reports the caller its
// leader.
func (g *flightGroup) lead(k TileKey) (*flightCall, bool) {
	g.mu.Lock()
	if c, ok := g.inflight[k]; ok {
		g.mu.Unlock()
		g.coalesced.Add(1)
		return c, false
	}
	c := &flightCall{done: make(chan struct{})}
	g.inflight[k] = c
	g.mu.Unlock()
	return c, true
}

// finish publishes the leader's result and releases the joiners.
func (g *flightGroup) finish(k TileKey, c *flightCall, t *Tile, err error) {
	c.tile, c.err = t, err
	g.mu.Lock()
	delete(g.inflight, k)
	g.mu.Unlock()
	close(c.done)
}

// Coalesced returns how many requests joined an in-flight build
// instead of starting their own.
func (g *flightGroup) Coalesced() int64 { return g.coalesced.Load() }
