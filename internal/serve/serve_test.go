package serve

import (
	"math"
	"sync"
	"testing"

	"gristgo/internal/dycore"
	"gristgo/internal/mesh"
)

// Shared test mesh: G3 is big enough (642 cells) for meaningful tiles
// yet cheap to build once.
var testMesh = mesh.New(3).ReorderBFS()

// testState builds a mildly structured full-mesh state so snapshot
// fields are non-trivial.
func testState(nlev int) *dycore.State {
	s := dycore.NewState(testMesh, nlev)
	s.IsothermalRest(295)
	s.AddThermalBubble(0.4, 1.2, 0.25, 4)
	s.AddSolidBodyWind(18)
	return s
}

// testSnapshot derives one snapshot from the shared state.
func testSnapshot(epoch int) *Snapshot {
	return SnapshotFromState(epoch, epoch*10, testState(3))
}

func TestFieldIDRoundTrip(t *testing.T) {
	for i, name := range FieldNames {
		id, ok := FieldID(name)
		if !ok || id != i {
			t.Fatalf("FieldID(%q) = (%d, %v), want (%d, true)", name, id, ok, i)
		}
	}
	if _, ok := FieldID("nope"); ok {
		t.Fatal("FieldID accepted an unknown field")
	}
}

func TestSnapshotFieldsPhysical(t *testing.T) {
	snap := testSnapshot(1)
	if snap.NCells() != testMesh.NCells {
		t.Fatalf("NCells = %d, want %d", snap.NCells(), testMesh.NCells)
	}
	for c := int32(0); c < int32(testMesh.NCells); c++ {
		ps := snap.Value(FieldPS, c)
		if ps < 5e4 || ps > 1.2e5 {
			t.Fatalf("cell %d: surface pressure %.0f Pa implausible", c, ps)
		}
		ts := snap.Value(FieldTSfc, c)
		if ts < 150 || ts > 400 {
			t.Fatalf("cell %d: surface temperature %.1f K implausible", c, ts)
		}
		if w := snap.Value(FieldWMax, c); w < 0 {
			t.Fatalf("cell %d: negative |w| max %v", c, w)
		}
	}
	// The solid-body wind must show up in the surface wind field.
	var maxU float64
	for c := int32(0); c < int32(testMesh.NCells); c++ {
		maxU = math.Max(maxU, math.Abs(snap.Value(FieldUSfc, c)))
	}
	if maxU < 1 {
		t.Fatalf("solid-body wind missing from u_sfc (max |u| = %v)", maxU)
	}
}

func TestSnapshotStoreRetention(t *testing.T) {
	st := NewSnapshotStore(3)
	if st.Latest() != nil {
		t.Fatal("empty store returned a snapshot")
	}
	for e := 1; e <= 5; e++ {
		st.Publish(&Snapshot{Epoch: e})
	}
	got := st.Epochs()
	want := []int{3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("Epochs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Epochs = %v, want %v", got, want)
		}
	}
	if st.Latest().Epoch != 5 {
		t.Fatalf("Latest().Epoch = %d, want 5", st.Latest().Epoch)
	}
	if _, ok := st.At(2); ok {
		t.Fatal("evicted epoch 2 still retrievable")
	}
	if s, ok := st.At(4); !ok || s.Epoch != 4 {
		t.Fatal("retained epoch 4 not retrievable")
	}
}

func TestTilerPartitionsAllCells(t *testing.T) {
	tl := NewTiler(testMesh, 12, 12345)
	seen := make([]bool, testMesh.NCells)
	for tile := int32(0); tile < int32(tl.NTiles); tile++ {
		cells := tl.TileCells(tile)
		if len(cells) == 0 {
			t.Fatalf("tile %d is empty", tile)
		}
		for i, c := range cells {
			if seen[c] {
				t.Fatalf("cell %d in two tiles", c)
			}
			seen[c] = true
			if tl.TileOfCell(c) != tile {
				t.Fatalf("TileOfCell(%d) = %d, want %d", c, tl.TileOfCell(c), tile)
			}
			if tl.LocalIndex(c) != int32(i) {
				t.Fatalf("LocalIndex(%d) = %d, want %d", c, tl.LocalIndex(c), i)
			}
		}
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("cell %d unassigned", c)
		}
	}
}

// Locate's greedy walk over the Delaunay dual must find the true
// nearest cell for arbitrary query points.
func TestTilerLocateMatchesBruteForce(t *testing.T) {
	tl := NewTiler(testMesh, 12, 12345)
	pts := []struct{ lat, lon float64 }{
		{0, 0}, {89.9, 10}, {-89.9, -120}, {45, 179.9}, {45, -179.9},
		{-33.86, 151.2}, {51.5, -0.12}, {12.3, -45.6}, {-60, 100},
	}
	for _, p := range pts {
		lat, lon := p.lat*math.Pi/180, p.lon*math.Pi/180
		got := tl.Locate(lat, lon)
		q := mesh.FromLatLon(lat, lon)
		best, bestD := int32(0), -2.0
		for c := 0; c < testMesh.NCells; c++ {
			if d := testMesh.CellPos[c].Dot(q); d > bestD {
				best, bestD = int32(c), d
			}
		}
		if got != best {
			t.Fatalf("Locate(%.1f, %.1f) = cell %d, brute force says %d", p.lat, p.lon, got, best)
		}
	}
}

func TestTilerOverlapsFindsContainingTile(t *testing.T) {
	tl := NewTiler(testMesh, 12, 12345)
	// Every cell's own lat/lon must fall inside a bbox its tile overlaps.
	for c := 0; c < testMesh.NCells; c++ {
		lat, lon := testMesh.CellLat[c], testMesh.CellLon[c]
		tile := tl.TileOfCell(int32(c))
		if !tl.Overlaps(tile, lat-0.01, lat+0.01, lon-0.01, lon+0.01) {
			t.Fatalf("tile %d does not overlap its own cell %d bbox", tile, c)
		}
	}
}

func TestTileCacheLRUAndStats(t *testing.T) {
	snap := testSnapshot(1)
	tl := NewTiler(testMesh, 8, 12345)
	cache := NewTileCache(2)
	mk := func(tile int32) *Tile {
		k := TileKey{Epoch: 1, Tile: tile, Field: FieldPS}
		return NewTile(k, snap, tl.TileCells(tile))
	}
	t0, t1, t2 := mk(0), mk(1), mk(2)
	cache.Add(t0)
	cache.Add(t1)
	if got := cache.Get(t0.key); got != t0 {
		t.Fatal("Get missed a resident tile")
	}
	// t0 is now MRU; adding t2 must evict t1.
	cache.Add(t2)
	if cache.Get(t1.key) != nil {
		t.Fatal("LRU kept the least-recently-used tile")
	}
	if cache.Get(t0.key) != t0 || cache.Get(t2.key) != t2 {
		t.Fatal("LRU evicted a recently used tile")
	}
	hits, misses, evictions := cache.Stats()
	if hits != 3 || misses != 1 || evictions != 1 {
		t.Fatalf("Stats = (%d, %d, %d), want (3, 1, 1)", hits, misses, evictions)
	}
	// First materialization wins on duplicate Add.
	dup := mk(0)
	cache.Add(dup)
	if cache.Get(t0.key) != t0 {
		t.Fatal("duplicate Add replaced the resident tile")
	}
}

// The tile-cache hit path is annotated //grist:hotpath — prove it is
// allocation-free.
func TestTileCacheGetAllocFree(t *testing.T) {
	snap := testSnapshot(1)
	tl := NewTiler(testMesh, 8, 12345)
	cache := NewTileCache(4)
	k := TileKey{Epoch: 1, Tile: 0, Field: FieldPS}
	cache.Add(NewTile(k, snap, tl.TileCells(0)))
	missed := false
	allocs := testing.AllocsPerRun(1000, func() {
		if cache.Get(k) == nil {
			missed = true
		}
	})
	if missed {
		t.Fatal("resident tile missed")
	}
	if allocs != 0 {
		t.Fatalf("TileCache.Get allocates %.1f per call, want 0", allocs)
	}
}

func TestTileValuesMatchSnapshot(t *testing.T) {
	snap := testSnapshot(2)
	tl := NewTiler(testMesh, 8, 12345)
	cells := tl.TileCells(3)
	tile := NewTile(TileKey{Epoch: 2, Tile: 3, Field: FieldTSfc}, snap, cells)
	if tile.Len() != len(cells) {
		t.Fatalf("tile Len = %d, want %d", tile.Len(), len(cells))
	}
	for i, c := range cells {
		if tile.Value(int32(i)) != snap.Value(FieldTSfc, c) {
			t.Fatalf("tile value %d diverges from snapshot cell %d", i, c)
		}
	}
	// AppendValues hands out a copy, not the internal slice.
	out := tile.AppendValues(nil)
	out[0] = -1e9
	if tile.Value(0) == -1e9 {
		t.Fatal("AppendValues leaked the internal slice")
	}
}

// flightGroup semantics, deterministically: joiners block until the
// leader finishes and then observe exactly its result.
func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	k := TileKey{Epoch: 1, Tile: 2, Field: 3}
	lead, isLeader := g.lead(k)
	if !isLeader {
		t.Fatal("first lead was not the leader")
	}
	if c, again := g.lead(k); again || c != lead {
		t.Fatal("second lead did not coalesce onto the first")
	}
	const joiners = 8
	var wg sync.WaitGroup
	results := make([]*Tile, joiners)
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, late := g.lead(k)
			if late { // the leader already finished; that path is cache's job
				g.finish(k, c, nil, nil)
				return
			}
			<-c.done
			results[i] = c.tile
		}(i)
	}
	built := &Tile{key: k}
	g.finish(k, lead, built, nil)
	wg.Wait()
	for i, r := range results {
		if r != nil && r != built {
			t.Fatalf("joiner %d saw a different tile", i)
		}
	}
	if g.Coalesced() < 1 {
		t.Fatal("coalesced counter never moved")
	}
	if c, fresh := g.lead(k); !fresh || c == lead {
		t.Fatal("finished call still joinable")
	}
}

func newTestEngine(capTiles int) *Engine {
	store := NewSnapshotStore(8)
	return NewEngine(testMesh, store, 8, capTiles, 12345)
}

func TestEnginePointMatchesSnapshot(t *testing.T) {
	eng := newTestEngine(32)
	snap := testSnapshot(1)
	eng.Store().Publish(snap)

	res, status, qerr := eng.Point(-1, "ps", 12.0, 34.0)
	if qerr != nil {
		t.Fatalf("Point: %v", qerr)
	}
	if status != CacheBuild {
		t.Fatalf("first query status %q, want %q", status, CacheBuild)
	}
	if res.Epoch != 1 {
		t.Fatalf("Point served epoch %d, want 1", res.Epoch)
	}
	want := snap.Value(FieldPS, res.Cell)
	if res.Value != want {
		t.Fatalf("Point value %v, want %v", res.Value, want)
	}
	// Same query again: cache hit, same value.
	res2, status2, _ := eng.Point(-1, "ps", 12.0, 34.0)
	if status2 != CacheHit {
		t.Fatalf("second query status %q, want %q", status2, CacheHit)
	}
	if res2.Value != want || res2.Cell != res.Cell {
		t.Fatal("cached value diverged from built value")
	}
}

func TestEngineErrors(t *testing.T) {
	eng := newTestEngine(32)
	if _, _, qerr := eng.Point(-1, "ps", 0, 0); qerr == nil || qerr.Code != 404 {
		t.Fatalf("empty store: got %v, want 404", qerr)
	}
	eng.Store().Publish(testSnapshot(1))
	cases := []struct {
		name string
		code int
		run  func() *Error
	}{
		{"bad field", 400, func() *Error { _, _, e := eng.Point(-1, "vorticity", 0, 0); return e }},
		{"bad lat", 400, func() *Error { _, _, e := eng.Point(-1, "ps", 91, 0); return e }},
		{"missing epoch", 404, func() *Error { _, _, e := eng.Point(7, "ps", 0, 0); return e }},
		{"bad region bbox", 400, func() *Error { _, _, e := eng.Region(-1, "ps", 30, 10, 0, 20, 0); return e }},
		{"bad range order", 400, func() *Error { _, _, e := eng.Range("ps", 0, 0, 5, 2); return e }},
	}
	for _, tc := range cases {
		if e := tc.run(); e == nil || e.Code != tc.code {
			t.Fatalf("%s: got %v, want code %d", tc.name, e, tc.code)
		}
	}
}

func TestEngineRegion(t *testing.T) {
	eng := newTestEngine(64)
	snap := testSnapshot(1)
	eng.Store().Publish(snap)

	res, _, qerr := eng.Region(-1, "t_sfc", -30, 30, -60, 60, 0)
	if qerr != nil {
		t.Fatalf("Region: %v", qerr)
	}
	if len(res.Cells) == 0 {
		t.Fatal("region over a third of the globe returned no cells")
	}
	if len(res.Cells) != len(res.Values) || len(res.Cells) != len(res.LatDeg) || len(res.Cells) != len(res.LonDeg) {
		t.Fatal("region arrays disagree on length")
	}
	for i, c := range res.Cells {
		latD := testMesh.CellLat[c] * 180 / math.Pi
		lonD := testMesh.CellLon[c] * 180 / math.Pi
		if latD < -30.001 || latD > 30.001 || lonD < -60.001 || lonD > 60.001 {
			t.Fatalf("cell %d at (%.2f, %.2f) outside requested bbox", c, latD, lonD)
		}
		if res.Values[i] != snap.Value(FieldTSfc, c) {
			t.Fatalf("region value %d diverges from snapshot", i)
		}
	}

	// A limit truncates and reports it.
	lim, _, qerr := eng.Region(-1, "t_sfc", -30, 30, -60, 60, 5)
	if qerr != nil {
		t.Fatalf("limited Region: %v", qerr)
	}
	if len(lim.Cells) != 5 || !lim.Truncated {
		t.Fatalf("limit=5: got %d cells, truncated=%v", len(lim.Cells), lim.Truncated)
	}

	// Full-globe region returns every cell.
	all, _, qerr := eng.Region(-1, "ps", -90, 90, -180, 180, testMesh.NCells)
	if qerr != nil {
		t.Fatalf("global Region: %v", qerr)
	}
	if len(all.Cells) != testMesh.NCells {
		t.Fatalf("global region returned %d cells, want %d", len(all.Cells), testMesh.NCells)
	}
}

func TestEngineRange(t *testing.T) {
	eng := newTestEngine(64)
	for e := 1; e <= 4; e++ {
		eng.Store().Publish(testSnapshot(e))
	}
	res, _, qerr := eng.Range("ps", 10, 20, 0, -1)
	if qerr != nil {
		t.Fatalf("Range: %v", qerr)
	}
	if len(res.Series) != 4 {
		t.Fatalf("Range returned %d samples, want 4", len(res.Series))
	}
	for _, pt := range res.Series {
		snap, _ := eng.Store().At(pt.Epoch)
		if pt.Value != snap.Value(FieldPS, res.Cell) {
			t.Fatalf("range value for epoch %d diverges", pt.Epoch)
		}
		if pt.Step != snap.Step {
			t.Fatalf("range step for epoch %d diverges", pt.Epoch)
		}
	}
	// Bounded window.
	sub, _, qerr := eng.Range("ps", 10, 20, 2, 3)
	if qerr != nil {
		t.Fatalf("bounded Range: %v", qerr)
	}
	if len(sub.Series) != 2 || sub.Series[0].Epoch != 2 || sub.Series[1].Epoch != 3 {
		t.Fatalf("bounded Range series = %+v, want epochs [2 3]", sub.Series)
	}
	// An empty window inside valid bounds is a 404, not an error page.
	if _, _, qerr := eng.Range("ps", 10, 20, 90, 99); qerr == nil || qerr.Code != 404 {
		t.Fatalf("empty window: got %v, want 404", qerr)
	}
}

// Concurrent identical queries on a cold tile: every caller gets the
// same value and the miss accounting closes (each miss either led a
// build or coalesced onto one).
func TestEngineConcurrentPointCoalesces(t *testing.T) {
	eng := newTestEngine(64)
	eng.Store().Publish(testSnapshot(1))
	const n = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	vals := map[float64]int{}
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, _, qerr := eng.Point(-1, "w_max", 42.0, -71.0)
			if qerr != nil {
				t.Errorf("Point: %v", qerr)
				return
			}
			mu.Lock()
			vals[res.Value]++
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	if len(vals) != 1 {
		t.Fatalf("coalesced queries returned %d distinct values", len(vals))
	}
	st := eng.Stats()
	if st.Hits+st.Misses != n {
		t.Fatalf("hits=%d misses=%d, want sum %d", st.Hits, st.Misses, n)
	}
	if st.Builds+st.Coalesced != st.Misses {
		t.Fatalf("miss accounting leaks: builds=%d coalesced=%d misses=%d",
			st.Builds, st.Coalesced, st.Misses)
	}
	if st.Builds < 1 || st.Builds > st.Misses {
		t.Fatalf("builds=%d out of range [1, %d]", st.Builds, st.Misses)
	}
}

// The immutability contract: a query storm (with evictions forcing
// rebuilds) must leave the published snapshots bit-identical, and
// mutating data handed to clients must not write back.
func TestServingNeverMutatesSnapshots(t *testing.T) {
	eng := newTestEngine(4) // tiny cache: constant eviction + rebuild
	snaps := []*Snapshot{testSnapshot(1), testSnapshot(2)}
	sums := make([]uint64, len(snaps))
	for i, s := range snaps {
		eng.Store().Publish(s)
		sums[i] = s.Checksum()
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				epoch := 1 + (i+w)%2
				field := FieldNames[(i+w)%NumFields]
				lat := float64((i*13+w*7)%170 - 85)
				lon := float64((i*29+w*11)%358 - 179)
				res, _, qerr := eng.Region(epoch, field, lat-5, lat+5, lon-5, lon+5, 64)
				if qerr != nil {
					continue
				}
				// Scribble on everything the engine handed back.
				for j := range res.Values {
					res.Values[j] = math.NaN()
					res.LatDeg[j], res.LonDeg[j] = -1e9, -1e9
				}
				if _, _, qerr := eng.Point(epoch, field, lat, lon); qerr != nil {
					t.Errorf("point during storm: %v", qerr)
				}
			}
		}(w)
	}
	wg.Wait()
	for i, s := range snaps {
		if s.Checksum() != sums[i] {
			t.Fatalf("snapshot epoch %d mutated by serving", s.Epoch)
		}
	}
	// A rebuilt tile must serve the original values.
	res, _, qerr := eng.Point(1, "ps", 12, 34)
	if qerr != nil {
		t.Fatalf("Point after storm: %v", qerr)
	}
	if want := snaps[0].Value(FieldPS, res.Cell); res.Value != want {
		t.Fatalf("post-storm value %v, want %v", res.Value, want)
	}
}
