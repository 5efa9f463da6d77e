package dycore

import (
	"slices"

	"gristgo/internal/mesh"
)

// entitySet is one kernel's iteration space: the engine's own copy of an
// id list, ordered interior first. ids[:k] is independent of the halo
// exchange and may run while it is in flight; ids[k:] reads data the
// exchange refreshes.
//
// An entity is "boundary" when the dependency cone of its tendency
// touches data refreshed by the halo exchange: state at halo cells, or
// normal winds at ghost edges. The cone is at most two hops deep (a
// tendency reads diagnostic intermediates, which read state one ring
// out), so the classification follows from OwnedSets plus the mesh
// one-ring, computed once at SetOwned time.
type entitySet struct {
	ids []int32
	k   int
}

// of returns the share of the set a pass over reg visits.
func (s entitySet) of(reg region) []int32 {
	switch reg {
	case regionInterior:
		return s.ids[:s.k]
	case regionBoundary:
		return s.ids[s.k:]
	}
	return s.ids
}

// newSet copies ids with the untainted entities first, both shares in the
// caller's order (the caller's list is never reordered: the exchanger
// layouts index it).
func newSet(ids []int32, tainted func(int32) bool) entitySet {
	out := make([]int32, len(ids))
	k, j := 0, len(ids)
	for _, id := range ids {
		if tainted(id) {
			j--
			out[j] = id
		} else {
			out[k] = id
			k++
		}
	}
	slices.Reverse(out[k:])
	return entitySet{out, k}
}

// splitSets holds the iteration space of every stage loop, so a stage can
// run Start() → interior compute → Finish() → boundary compute and
// overlap the halo round-trip with useful work.
type splitSets struct {
	diag entitySet // cells of diagnostic kernels (rrr, ke, div)
	flux entitySet // edges of the mass-flux kernel
	vert entitySet // dual vertices of the vorticity kernel
	vtan entitySet // edges of the TRiSK tangential kernel
	tend entitySet // cells of continuity/thermo tendencies
	u    entitySet // edges of the momentum tendency
}

// fullSets is the one-rank case: every entity, all of it interior (no
// exchange refreshes anything).
func fullSets(m *mesh.Mesh) splitSets {
	ids := mesh.IdentityIDs(max(m.NCells, m.NEdges, m.NVerts))
	cells := entitySet{ids[:m.NCells], m.NCells}
	edges := entitySet{ids[:m.NEdges], m.NEdges}
	verts := entitySet{ids[:m.NVerts], m.NVerts}
	return splitSets{diag: cells, flux: edges, vert: verts, vtan: edges, tend: cells, u: edges}
}

// buildSplit derives the interior/boundary partition of every stage
// loop from the ownership sets.
func buildSplit(m *mesh.Mesh, o *OwnedSets) splitSets {
	owned := make([]bool, m.NCells)
	for _, c := range o.TendCells {
		owned[c] = true
	}
	// Halo cells: diagnostic region cells owned by peers — their state
	// arrives via the exchange.
	halo := make([]bool, m.NCells)
	for _, c := range o.DiagCells {
		if !owned[c] {
			halo[c] = true
		}
	}
	ownedEdge := make([]bool, m.NEdges)
	for _, e := range o.UEdges {
		ownedEdge[e] = true
	}
	// Ghost edges: edges of the diagnostic region whose normal wind
	// arrives via the exchange.
	ghost := make([]bool, m.NEdges)
	for _, c := range o.DiagCells {
		for _, e := range m.CellEdges(c) {
			if !ownedEdge[e] {
				ghost[e] = true
			}
		}
	}

	// Taint predicates: does the entity's kernel read exchanged data,
	// directly or through a diagnostic intermediate?
	cellTaint := func(c int32) bool {
		// rrr and the pressure-gradient inputs read state at c; kinetic
		// energy and the divergence read U at the cell's edges.
		if halo[c] {
			return true
		}
		for _, e := range m.CellEdges(c) {
			if ghost[e] {
				return true
			}
		}
		return false
	}
	fluxTaint := func(ed int32) bool {
		// Edge reconstruction reads state at both adjacent cells and U
		// at the edge itself.
		return ghost[ed] || halo[m.EdgeCell[ed][0]] || halo[m.EdgeCell[ed][1]]
	}
	vertTaint := func(v int32) bool {
		for j := 0; j < 3; j++ {
			if ghost[m.VertEdge[v][j]] {
				return true
			}
		}
		return false
	}
	vtanTaint := func(ed int32) bool {
		for j := m.TrskOff[ed]; j < m.TrskOff[ed+1]; j++ {
			if ghost[m.TrskEdge[j]] {
				return true
			}
		}
		return false
	}

	// Vorticity and tangential winds are consumed only at the owned
	// momentum edges, so their loops run over the verts of those edges
	// and the edges themselves (a sweep of the whole mesh would read stale
	// winds far from this rank's domain).
	var verts []int32
	vertSeen := make([]bool, m.NVerts)
	for _, ed := range o.UEdges {
		for _, v := range m.EdgeVert[ed] {
			if !vertSeen[v] {
				vertSeen[v] = true
				verts = append(verts, v)
			}
		}
	}
	return splitSets{
		diag: newSet(o.DiagCells, cellTaint),
		flux: newSet(o.FluxEdges, fluxTaint),
		vert: newSet(verts, vertTaint),
		vtan: newSet(o.UEdges, vtanTaint),
		// Continuity at an owned cell reads flux and theta at its edges.
		tend: newSet(o.TendCells, func(c int32) bool {
			for _, e := range m.CellEdges(c) {
				if fluxTaint(e) {
					return true
				}
			}
			return false
		}),
		// Momentum at an owned edge reads diagnostics at both adjacent
		// cells, vorticity at both end vertices, and its tangential wind.
		u: newSet(o.UEdges, func(ed int32) bool {
			return cellTaint(m.EdgeCell[ed][0]) || cellTaint(m.EdgeCell[ed][1]) ||
				vertTaint(m.EdgeVert[ed][0]) || vertTaint(m.EdgeVert[ed][1]) ||
				vtanTaint(ed)
		}),
	}
}
