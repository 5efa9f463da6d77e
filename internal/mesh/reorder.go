package mesh

import "runtime"

// BFSOrder returns a breadth-first-search permutation of the cells
// starting from the given seed: perm[newIndex] = oldIndex. Renumbering
// cells in BFS order keeps topological neighbors close in memory, which
// raises cache hit rates for the indirectly-addressed kernels (§3.1.3 of
// the paper).
func (m *Mesh) BFSOrder(seed int32) []int32 {
	perm := make([]int32, 0, m.NCells)
	seen := make([]bool, m.NCells)
	queue := []int32{seed}
	seen[seed] = true
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		perm = append(perm, c)
		for _, nb := range m.CellCells(c) {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	// Disconnected cells (impossible on a sphere, but keep the
	// permutation total regardless).
	for c := int32(0); c < int32(m.NCells); c++ {
		if !seen[c] {
			perm = append(perm, c)
		}
	}
	return perm
}

// Reorder returns a new mesh with cells renumbered by the permutation
// perm (perm[new] = old), and edges and dual vertices renumbered by first
// touch from the new cell order. All connectivity, signs, kite fractions
// and TRiSK stencils are rebuilt in the new numbering.
func (m *Mesh) Reorder(perm []int32) *Mesh {
	if len(perm) != m.NCells {
		panic("mesh: permutation length does not match cell count")
	}
	cellNew := make([]int32, m.NCells) // old -> new
	for newID, oldID := range perm {
		cellNew[oldID] = int32(newID)
	}

	// First-touch renumbering for edges and vertices: walk cells in the
	// new order and number each edge/vertex when first encountered.
	edgeNew := make([]int32, m.NEdges)
	vertNew := make([]int32, m.NVerts)
	for i := range edgeNew {
		edgeNew[i] = -1
	}
	for i := range vertNew {
		vertNew[i] = -1
	}
	var ec, vc int32
	for _, oldCell := range perm {
		for _, e := range m.CellEdges(oldCell) {
			if edgeNew[e] < 0 {
				edgeNew[e] = ec
				ec++
			}
		}
		for _, v := range m.CellVerts(oldCell) {
			if vertNew[v] < 0 {
				vertNew[v] = vc
				vc++
			}
		}
	}

	r := &Mesh{
		Level:  m.Level,
		Radius: m.Radius,
		NCells: m.NCells, NEdges: m.NEdges, NVerts: m.NVerts,
		CellPos:  make([]Vec3, m.NCells),
		CellLat:  make([]float64, m.NCells),
		CellLon:  make([]float64, m.NCells),
		CellArea: make([]float64, m.NCells),

		CellOff:      make([]int32, m.NCells+1),
		CellEdge:     make([]int32, len(m.CellEdge)),
		CellCell:     make([]int32, len(m.CellCell)),
		CellVert:     make([]int32, len(m.CellVert)),
		CellEdgeSign: make([]int8, len(m.CellEdgeSign)),
		KiteFrac:     make([]float64, len(m.KiteFrac)),

		EdgeCell:    make([][2]int32, m.NEdges),
		EdgeVert:    make([][2]int32, m.NEdges),
		EdgePos:     make([]Vec3, m.NEdges),
		EdgeLat:     make([]float64, m.NEdges),
		EdgeNormal:  make([]Vec3, m.NEdges),
		EdgeTangent: make([]Vec3, m.NEdges),
		DcEdge:      make([]float64, m.NEdges),
		DvEdge:      make([]float64, m.NEdges),

		VertPos:      make([]Vec3, m.NVerts),
		VertArea:     make([]float64, m.NVerts),
		VertCell:     make([][3]int32, m.NVerts),
		VertEdge:     make([][3]int32, m.NVerts),
		VertEdgeSign: make([][3]int8, m.NVerts),

		TrskOff:    make([]int32, m.NEdges+1),
		TrskEdge:   make([]int32, len(m.TrskEdge)),
		TrskWeight: make([]float64, len(m.TrskWeight)),
	}

	// Every copy below writes only its own entity of r, so it runs through
	// ParallelFor; the CSR offsets are serial prefix sums.
	workers := runtime.GOMAXPROCS(0)
	cellIDs, edgeIDs := IdentityIDs(m.NCells), IdentityIDs(m.NEdges)

	// Cells.
	for newID, oldID := range perm {
		r.CellOff[newID+1] = r.CellOff[newID] + int32(m.CellDegree(oldID))
	}
	ParallelFor(workers, cellIDs, func(ids []int32) {
		for _, newID := range ids {
			oldID := perm[newID]
			r.CellPos[newID] = m.CellPos[oldID]
			r.CellLat[newID] = m.CellLat[oldID]
			r.CellLon[newID] = m.CellLon[oldID]
			r.CellArea[newID] = m.CellArea[oldID]
			src := m.CellOff[oldID]
			dst := r.CellOff[newID]
			deg := m.CellDegree(oldID)
			for k := 0; k < deg; k++ {
				r.CellEdge[dst+int32(k)] = edgeNew[m.CellEdge[src+int32(k)]]
				r.CellCell[dst+int32(k)] = cellNew[m.CellCell[src+int32(k)]]
				r.CellVert[dst+int32(k)] = vertNew[m.CellVert[src+int32(k)]]
				r.CellEdgeSign[dst+int32(k)] = m.CellEdgeSign[src+int32(k)]
				r.KiteFrac[dst+int32(k)] = m.KiteFrac[src+int32(k)]
			}
		}
	})

	// Edges, and the TRiSK stencil sizes in the new numbering.
	ParallelFor(workers, edgeIDs, func(ids []int32) {
		for _, oldE := range ids {
			e := edgeNew[oldE]
			r.EdgeCell[e] = [2]int32{cellNew[m.EdgeCell[oldE][0]], cellNew[m.EdgeCell[oldE][1]]}
			r.EdgeVert[e] = [2]int32{vertNew[m.EdgeVert[oldE][0]], vertNew[m.EdgeVert[oldE][1]]}
			r.EdgePos[e] = m.EdgePos[oldE]
			r.EdgeLat[e] = m.EdgeLat[oldE]
			r.EdgeNormal[e] = m.EdgeNormal[oldE]
			r.EdgeTangent[e] = m.EdgeTangent[oldE]
			r.DcEdge[e] = m.DcEdge[oldE]
			r.DvEdge[e] = m.DvEdge[oldE]
			r.TrskOff[e+1] = m.TrskOff[oldE+1] - m.TrskOff[oldE]
		}
	})

	// Dual vertices.
	ParallelFor(workers, IdentityIDs(m.NVerts), func(ids []int32) {
		for _, oldV := range ids {
			v := vertNew[oldV]
			r.VertPos[v] = m.VertPos[oldV]
			r.VertArea[v] = m.VertArea[oldV]
			for k := 0; k < 3; k++ {
				r.VertCell[v][k] = cellNew[m.VertCell[oldV][k]]
				r.VertEdge[v][k] = edgeNew[m.VertEdge[oldV][k]]
				r.VertEdgeSign[v][k] = m.VertEdgeSign[oldV][k]
			}
		}
	})

	// TRiSK stencil, regrouped by the new edge numbering.
	for e := 0; e < m.NEdges; e++ {
		r.TrskOff[e+1] += r.TrskOff[e]
	}
	ParallelFor(workers, edgeIDs, func(ids []int32) {
		for _, oldE := range ids {
			dst := r.TrskOff[edgeNew[oldE]]
			for k := m.TrskOff[oldE]; k < m.TrskOff[oldE+1]; k++ {
				r.TrskEdge[dst] = edgeNew[m.TrskEdge[k]]
				r.TrskWeight[dst] = m.TrskWeight[k]
				dst++
			}
		}
	})
	return r
}

// ReorderBFS is shorthand for Reorder(BFSOrder(0)).
func (m *Mesh) ReorderBFS() *Mesh { return m.Reorder(m.BFSOrder(0)) }
