package dycore

import "gristgo/internal/mesh"

// splitSets partitions one rank's entity sets into an exchange-
// independent interior and an exchange-dependent boundary, so a stage
// can run Start() → interior compute → Finish() → boundary compute and
// overlap the halo round-trip with useful work.
//
// An entity is "boundary" when the dependency cone of its tendency
// touches data refreshed by the halo exchange: state at halo cells, or
// normal winds at ghost edges. The cone is at most two hops deep (a
// tendency reads diagnostic intermediates, which read state one ring
// out), so the classification follows from OwnedSets plus the mesh
// one-ring, computed once at SetOwned time.
type splitSets struct {
	diagAll, diagInt, diagBnd []int32 // cells of diagnostic kernels (rrr, ke, div)
	fluxAll, fluxInt, fluxBnd []int32 // edges of the mass-flux kernel
	vertAll, vertInt, vertBnd []int32 // dual vertices of the vorticity kernel
	vtanAll, vtanInt, vtanBnd []int32 // edges of the TRiSK tangential kernel
	tendAll, tendInt, tendBnd []int32 // cells of continuity/thermo tendencies
	uAll, uInt, uBnd          []int32 // edges of the momentum tendency
}

// nonNil maps a nil id list to an empty one: in split mode every kernel
// iterates an explicit list, and nil means "every entity" to the
// iteration helpers.
func nonNil(ids []int32) []int32 {
	if ids == nil {
		return []int32{}
	}
	return ids
}

// partition splits ids by the taint predicate into (interior, boundary).
func partition(ids []int32, tainted func(int32) bool) (in, bnd []int32) {
	in = make([]int32, 0, len(ids))
	bnd = make([]int32, 0, len(ids))
	for _, id := range ids {
		if tainted(id) {
			bnd = append(bnd, id)
		} else {
			in = append(in, id)
		}
	}
	return in, bnd
}

// buildSplit derives the interior/boundary partition of every stage
// loop from the ownership sets.
func buildSplit(m *mesh.Mesh, o *OwnedSets) *splitSets {
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

	sp := &splitSets{
		diagAll: nonNil(o.DiagCells),
		fluxAll: nonNil(o.FluxEdges),
		tendAll: nonNil(o.TendCells),
		uAll:    nonNil(o.UEdges),
	}
	// Vorticity and tangential winds are consumed only at the owned
	// momentum edges, so their loops run over the verts of those edges
	// and the edges themselves (the full-mesh sweep of the serial
	// engine would read stale winds far from this rank's domain).
	sp.vtanAll = sp.uAll
	vertSeen := make([]bool, m.NVerts)
	for _, ed := range sp.uAll {
		for j := 0; j < 2; j++ {
			if v := m.EdgeVert[ed][j]; !vertSeen[v] {
				vertSeen[v] = true
				sp.vertAll = append(sp.vertAll, v)
			}
		}
	}
	sp.vertAll = nonNil(sp.vertAll)

	sp.diagInt, sp.diagBnd = partition(sp.diagAll, cellTaint)
	sp.fluxInt, sp.fluxBnd = partition(sp.fluxAll, fluxTaint)
	sp.vertInt, sp.vertBnd = partition(sp.vertAll, vertTaint)
	sp.vtanInt, sp.vtanBnd = partition(sp.vtanAll, vtanTaint)
	// Continuity at an owned cell reads flux and theta at its edges.
	sp.tendInt, sp.tendBnd = partition(sp.tendAll, func(c int32) bool {
		for _, e := range m.CellEdges(c) {
			if fluxTaint(e) {
				return true
			}
		}
		return false
	})
	// Momentum at an owned edge reads diagnostics at both adjacent
	// cells, vorticity at both end vertices, and its tangential wind.
	sp.uInt, sp.uBnd = partition(sp.uAll, func(ed int32) bool {
		return cellTaint(m.EdgeCell[ed][0]) || cellTaint(m.EdgeCell[ed][1]) ||
			vertTaint(m.EdgeVert[ed][0]) || vertTaint(m.EdgeVert[ed][1]) ||
			vtanTaint(ed)
	})
	return sp
}

// stencilRegistry is the audit trail tying every adjacency-walking
// function of this package to the taint class it was classified against
// in buildSplit (or the reason it is exempt from the interior/boundary
// partition). gristlint's stencilsafety analyzer fails the build when a
// function touches mesh adjacency without an entry here — the guard that
// keeps new stencils from silently reading stale halo data during an
// overlapped Start → interior → Finish → boundary round.
var stencilRegistry = map[string]string{
	"engine.primalNormalFluxEdge": "split:flux — one-ring cell reads, boundary = edges of tainted cells",
	"engine.computeKineticEnergy": "split:diag — cell-of-edges sums (kinetic energy, divergence), boundary = cells with tainted edges",
	"engine.computeVorticity":     "split:vert — vertex-of-edges curl, boundary = vertices with tainted edges",
	"tangentialVelocityLevels":    "split:vtan — TRiSK neighborhood, boundary = edges with tainted TRiSK stencil",
	"engine.continuityAndThermo":  "split:tend — flux divergence, boundary = cells with tainted fluxes",
	"engine.momentum":             "split:u — widest stencil, boundary = edges with any tainted input",
	"engine.lapOfField":           "exempt: del^4 hyperdiffusion, serial full-mesh engines only",
	"engine.vectorLaplacian":      "exempt: del^4 hyperdiffusion, serial full-mesh engines only",
	"engine.VorticityAtLevel":     "exempt: serial diagnostic over the full mesh, no overlap window",
	"State.TotalEnergy":           "exempt: serial diagnostic over the full mesh, no overlap window",
	"buildSplit":                  "exempt: the taint machinery itself, runs once at SetOwned",
}
