package partition

import (
	"errors"
	"fmt"

	"gristgo/internal/detrand"
	"gristgo/internal/mesh"
)

// FromMesh builds the cell-adjacency graph of a C-grid mesh, the input to
// the domain decomposition.
func FromMesh(m *mesh.Mesh) *Graph {
	return &Graph{
		Xadj:   m.CellOff,
		Adjncy: m.CellCell,
	}
}

// Decomposition describes one part (MPI process / core group) of a
// partitioned mesh: the cells it owns, the halo cells it reads from
// neighbors, and the neighbor parts it exchanges with.
type Decomposition struct {
	NParts int
	Part   []int32 // cell -> part

	// Epoch versions successive decompositions of one elastic run: 0 for
	// a static decomposition, incremented by Elastic.Resize. Exchange
	// plans and checkpoint manifests derived from a decomposition carry
	// its epoch so stale layouts are detectable.
	Epoch int

	Owned []([]int32)         // per part: owned cell ids
	Halo  []([]int32)         // per part: remote cells needed (one ring)
	Peers []map[int32][]int32 // per part: peer part -> cells received from it
}

// ErrEmptyParts reports that a requested decomposition left at least one
// part with no owned cells — the multilevel bisection cannot cut that
// many well-connected regions out of the mesh. Callers that can shrink
// (elastic membership) should retry with fewer parts.
var ErrEmptyParts = errors.New("partition: decomposition has empty parts")

// Decompose partitions the mesh cells into nparts domains and derives the
// one-ring halos each domain needs for the C-grid stencils. Every part is
// guaranteed non-empty; when nparts exceeds what the mesh supports (tiny
// meshes, nparts > NCells) the error wraps ErrEmptyParts instead of
// returning a decomposition with silent zero-cell ranks.
func Decompose(m *mesh.Mesh, nparts int, seed int64) (*Decomposition, error) {
	return DecomposeWeighted(m, nparts, seed, nil)
}

// DecomposeWeighted is Decompose with per-cell load weights (nil: uniform).
// The multilevel partitioner balances summed cell weight per part, so a
// rebalance pass can feed measured per-cell cost back into the cut.
func DecomposeWeighted(m *mesh.Mesh, nparts int, seed int64, cellW []int32) (*Decomposition, error) {
	if nparts < 1 {
		return nil, fmt.Errorf("partition: nparts = %d, need at least 1", nparts)
	}
	if nparts > m.NCells {
		return nil, fmt.Errorf("partition: %d parts over %d cells: %w", nparts, m.NCells, ErrEmptyParts)
	}
	g := FromMesh(m)
	if cellW != nil {
		if len(cellW) != m.NCells {
			return nil, fmt.Errorf("partition: %d cell weights for %d cells", len(cellW), m.NCells)
		}
		g.VertW = cellW
	}
	part := KWay(g, nparts, seed)
	d := NewDecomposition(m, part, nparts)
	for p := 0; p < nparts; p++ {
		if len(d.Owned[p]) == 0 {
			return nil, fmt.Errorf("partition: %d-way split of %d cells left part %d empty (seed %d): %w",
				nparts, m.NCells, p, seed, ErrEmptyParts)
		}
	}
	return d, nil
}

// EpochSeed derives the partitioner seed of a decomposition epoch from
// the run's base seed — a splitmix64 step (detrand.SeedAt), so
// successive epochs explore independent cut refinements while staying
// reproducible from (seed, epoch) alone.
//
//grist:bitwise
func EpochSeed(seed int64, epoch int) int64 {
	return detrand.SeedAt(seed, epoch)
}

// MustDecompose is Decompose for static configurations whose part count
// is known to fit the mesh; it panics on the empty-part error.
func MustDecompose(m *mesh.Mesh, nparts int, seed int64) *Decomposition {
	d, err := Decompose(m, nparts, seed)
	if err != nil {
		panic(err)
	}
	return d
}

// NewDecomposition derives halo structure from an existing cell->part map.
func NewDecomposition(m *mesh.Mesh, part []int32, nparts int) *Decomposition {
	d := &Decomposition{
		NParts: nparts,
		Part:   part,
		Owned:  make([][]int32, nparts),
		Halo:   make([][]int32, nparts),
		Peers:  make([]map[int32][]int32, nparts),
	}
	for p := 0; p < nparts; p++ {
		d.Peers[p] = make(map[int32][]int32)
	}
	for c := int32(0); c < int32(m.NCells); c++ {
		d.Owned[part[c]] = append(d.Owned[part[c]], c)
	}
	// Halo discovery runs one part at a time so the dedup stamp cannot
	// be clobbered by interleaved parts (a cell bordering one part
	// through several owned cells must appear in that part's halo
	// exactly once).
	seen := make([]int32, m.NCells)
	for i := range seen {
		seen[i] = -1
	}
	for p := int32(0); p < int32(nparts); p++ {
		for _, c := range d.Owned[p] {
			for _, nb := range m.CellCells(c) {
				q := part[nb]
				if q != p && seen[nb] != p {
					seen[nb] = p
					d.Halo[p] = append(d.Halo[p], nb)
					d.Peers[p][q] = append(d.Peers[p][q], nb)
				}
			}
		}
	}
	return d
}

// HaloCells returns the halo size of part p.
func (d *Decomposition) HaloCells(p int) int { return len(d.Halo[p]) }

// MaxHaloCells returns the largest halo over all parts.
func (d *Decomposition) MaxHaloCells() int {
	maxH := 0
	for p := 0; p < d.NParts; p++ {
		if h := len(d.Halo[p]); h > maxH {
			maxH = h
		}
	}
	return maxH
}

// MaxPeers returns the largest number of exchange peers over all parts.
func (d *Decomposition) MaxPeers() int {
	maxP := 0
	for p := 0; p < d.NParts; p++ {
		if n := len(d.Peers[p]); n > maxP {
			maxP = n
		}
	}
	return maxP
}

// HaloRings returns the cells within the given number of topological
// rings outside part p (ring 1 = Halo[p]). The FCT tracer limiter needs
// ring-2 data: the provisional ratios of a neighbor depend on that
// neighbor's own neighbors.
func (d *Decomposition) HaloRings(m *mesh.Mesh, p int, rings int) []int32 {
	inSet := make(map[int32]int8, len(d.Owned[p])*2)
	for _, c := range d.Owned[p] {
		inSet[c] = 0
	}
	frontier := d.Owned[p]
	var halo []int32
	for r := 1; r <= rings; r++ {
		var next []int32
		for _, c := range frontier {
			for _, nb := range m.CellCells(c) {
				if _, ok := inSet[nb]; ok {
					continue
				}
				inSet[nb] = int8(r)
				next = append(next, nb)
				halo = append(halo, nb)
			}
		}
		frontier = next
	}
	return halo
}
