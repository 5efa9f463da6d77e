package serve

import (
	"math"

	"gristgo/internal/mesh"
	"gristgo/internal/partition"
)

// Tiler cuts the icosahedral mesh into a fixed set of spatial tiles —
// the cache granule of the serving plane. Tiles are the cell-ownership
// sets of a k-way graph decomposition (reusing internal/partition), so
// they are contiguous, balanced, and identical across processes for
// the same (mesh, ntiles, seed). The tiler also owns point lookup: a
// coarse lat/lon seed grid plus a greedy descent over the cell
// adjacency (the Delaunay walk on cell centers), which terminates at
// the nearest cell.
type Tiler struct {
	m      *mesh.Mesh
	NTiles int

	tileOf []int32   // cell -> tile
	cells  [][]int32 // tile -> owned cells, ascending
	local  []int32   // cell -> index within its tile's cell list

	// Per-tile lat/lon bounds for region pruning. A tile whose cells
	// straddle the dateline gets seam=true and matches every lon range.
	minLat, maxLat []float64
	minLon, maxLon []float64
	seam           []bool

	// Point-lookup seed grid: binOf(lat,lon) -> a cell near that bin,
	// the starting point of the greedy walk.
	nLat, nLon int
	seeds      []int32
}

// NewTiler partitions the mesh into ntiles tiles (clamped to NCells).
func NewTiler(m *mesh.Mesh, ntiles int, seed int64) *Tiler {
	if ntiles < 1 {
		ntiles = 1
	}
	if ntiles > m.NCells {
		ntiles = m.NCells
	}
	// Collapse to fewer tiles when the partitioner cannot fill the
	// requested count on a tiny mesh (Decompose rejects empty parts).
	d, err := partition.Decompose(m, ntiles, seed)
	for err != nil && ntiles > 1 {
		ntiles--
		d, err = partition.Decompose(m, ntiles, seed)
	}
	if err != nil {
		panic(err) // ntiles == 1 cannot fail on a non-empty mesh
	}
	t := &Tiler{
		m:      m,
		NTiles: ntiles,
		tileOf: d.Part,
		cells:  make([][]int32, ntiles),
		local:  make([]int32, m.NCells),
		minLat: make([]float64, ntiles),
		maxLat: make([]float64, ntiles),
		minLon: make([]float64, ntiles),
		maxLon: make([]float64, ntiles),
		seam:   make([]bool, ntiles),
	}
	for p := 0; p < ntiles; p++ {
		// Decompose emits owned cells in ascending order (cells are
		// scanned in id order), which is the stable tile layout.
		t.cells[p] = d.Owned[p]
		t.minLat[p], t.minLon[p] = math.Inf(1), math.Inf(1)
		t.maxLat[p], t.maxLon[p] = math.Inf(-1), math.Inf(-1)
		for i, c := range t.cells[p] {
			t.local[c] = int32(i)
			lat, lon := m.CellLat[c], m.CellLon[c]
			t.minLat[p] = math.Min(t.minLat[p], lat)
			t.maxLat[p] = math.Max(t.maxLat[p], lat)
			t.minLon[p] = math.Min(t.minLon[p], lon)
			t.maxLon[p] = math.Max(t.maxLon[p], lon)
		}
		// A lon span over pi radians means the tile wraps the +-pi seam
		// (tiles are compact, so a genuine span that wide only happens
		// at the poles, where all longitudes are close anyway).
		if t.maxLon[p]-t.minLon[p] > math.Pi {
			t.seam[p] = true
		}
	}
	t.buildSeedGrid()
	return t
}

// buildSeedGrid assigns one representative cell to each lat/lon bin,
// then floods the assignment into empty bins.
func (t *Tiler) buildSeedGrid() {
	m := t.m
	t.nLat = int(math.Sqrt(float64(m.NCells) / 8))
	if t.nLat < 4 {
		t.nLat = 4
	}
	t.nLon = 2 * t.nLat
	t.seeds = make([]int32, t.nLat*t.nLon)
	for i := range t.seeds {
		t.seeds[i] = -1
	}
	for c := int32(0); c < int32(m.NCells); c++ {
		t.seeds[t.binOf(m.CellLat[c], m.CellLon[c])] = c
	}
	// Flood-fill: copy from any filled neighbor until no bin is empty.
	for {
		progress, empty := false, false
		for i := 0; i < t.nLat; i++ {
			for j := 0; j < t.nLon; j++ {
				b := i*t.nLon + j
				if t.seeds[b] >= 0 {
					continue
				}
				for _, nb := range [4]int{
					i*t.nLon + (j+1)%t.nLon,
					i*t.nLon + (j+t.nLon-1)%t.nLon,
					max(i-1, 0)*t.nLon + j,
					min(i+1, t.nLat-1)*t.nLon + j,
				} {
					if t.seeds[nb] >= 0 {
						t.seeds[b] = t.seeds[nb]
						progress = true
						break
					}
				}
				if t.seeds[b] < 0 {
					empty = true
				}
			}
		}
		if !empty || !progress {
			return
		}
	}
}

// binOf maps a lat/lon to its seed-grid bin.
func (t *Tiler) binOf(lat, lon float64) int {
	i := int((lat + math.Pi/2) / math.Pi * float64(t.nLat))
	if i < 0 {
		i = 0
	}
	if i >= t.nLat {
		i = t.nLat - 1
	}
	j := int((lon + math.Pi) / (2 * math.Pi) * float64(t.nLon))
	if j < 0 {
		j = 0
	}
	if j >= t.nLon {
		j = t.nLon - 1
	}
	return i*t.nLon + j
}

// Locate returns the mesh cell nearest to (lat, lon), in radians: a
// greedy walk over the cell adjacency from the seed-grid start, moving
// to whichever neighbor is closer to the query until no neighbor
// improves. Cell centers with their adjacency form the Delaunay dual
// of the Voronoi-like mesh, so the walk terminates at the global
// nearest cell, in O(1) hops from a seed.
func (t *Tiler) Locate(lat, lon float64) int32 {
	q := mesh.FromLatLon(lat, lon)
	c := t.seeds[t.binOf(lat, lon)]
	best := t.m.CellPos[c].Dot(q)
	for {
		improved := false
		for _, nb := range t.m.CellCells(c) {
			if d := t.m.CellPos[nb].Dot(q); d > best {
				best, c = d, nb
				improved = true
			}
		}
		if !improved {
			return c
		}
	}
}

// TileOfCell returns the tile owning cell c.
func (t *Tiler) TileOfCell(c int32) int32 { return t.tileOf[c] }

// LocalIndex returns c's position within its tile's cell list.
func (t *Tiler) LocalIndex(c int32) int32 { return t.local[c] }

// TileCells returns the cells of one tile, ascending. The slice is the
// tiler's own — callers must treat it as read-only.
func (t *Tiler) TileCells(tile int32) []int32 { return t.cells[tile] }

// Overlaps reports whether tile's bounding box intersects the query
// box [minLat,maxLat]x[minLon,maxLon] (radians, minLon <= maxLon;
// dateline-crossing queries are split by the caller).
func (t *Tiler) Overlaps(tile int32, minLat, maxLat, minLon, maxLon float64) bool {
	if t.maxLat[tile] < minLat || t.minLat[tile] > maxLat {
		return false
	}
	if t.seam[tile] {
		return true
	}
	return t.maxLon[tile] >= minLon && t.minLon[tile] <= maxLon
}
