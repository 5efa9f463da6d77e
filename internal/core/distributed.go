package core

import (
	"sort"

	"gristgo/internal/comm"
	"gristgo/internal/dycore"
	"gristgo/internal/mesh"
	"gristgo/internal/partition"
	"gristgo/internal/precision"
)

// DistPlan is the precomputed exchange plan of a distributed dynamics
// run: per-rank ownership sets and the per-peer cell/edge lists moved on
// every halo exchange. The mesh topology is shared read-only across
// ranks; each rank advances only its owned cells and edges.
type DistPlan struct {
	Mesh   *mesh.Mesh
	NLev   int
	NParts int
	Decomp *partition.Decomposition

	TendCells [][]int32 // per rank: owned cells
	DiagCells [][]int32 // per rank: owned + one-ring halo
	UEdges    [][]int32 // per rank: owned edges (owner = part of EdgeCell[0])
	FluxEdges [][]int32 // per rank: edges of owned cells

	// Exchange lists: for rank p and peer q,
	// cellSend[p][q] = owned cells of p that q mirrors;
	// edgeSend[p][q] = owned edges of p that q mirrors.
	cellSend []map[int][]int32
	edgeSend []map[int][]int32
	cellRecv []map[int][]int32
	edgeRecv []map[int][]int32
}

// NewDistPlan partitions the mesh into nparts domains and derives all
// ownership and exchange lists. It panics when the partitioner cannot
// fill nparts non-empty parts; elastic callers that must handle that
// case decompose first and use NewDistPlanFromDecomp.
func NewDistPlan(m *mesh.Mesh, nlev, nparts int, seed int64) *DistPlan {
	return NewDistPlanFromDecomp(m, nlev, partition.MustDecompose(m, nparts, seed))
}

// NewDistPlanFromDecomp derives a distributed plan from an existing
// decomposition — the run-time path: an elastic run recomputes the
// decomposition over the surviving/joined member set and rebuilds the
// plan from it, keeping the mesh and state arrays shared.
func NewDistPlanFromDecomp(m *mesh.Mesh, nlev int, d *partition.Decomposition) *DistPlan {
	nparts := d.NParts
	pl := &DistPlan{
		Mesh: m, NLev: nlev, NParts: nparts, Decomp: d,
		TendCells: make([][]int32, nparts),
		DiagCells: make([][]int32, nparts),
		UEdges:    make([][]int32, nparts),
		FluxEdges: make([][]int32, nparts),
		cellSend:  make([]map[int][]int32, nparts),
		edgeSend:  make([]map[int][]int32, nparts),
		cellRecv:  make([]map[int][]int32, nparts),
		edgeRecv:  make([]map[int][]int32, nparts),
	}
	part := d.Part

	edgeOwner := func(e int32) int32 { return part[m.EdgeCell[e][0]] }

	for p := 0; p < nparts; p++ {
		pl.TendCells[p] = d.Owned[p]
		pl.DiagCells[p] = append(append([]int32(nil), d.Owned[p]...), d.Halo[p]...)
		pl.cellSend[p] = map[int][]int32{}
		pl.edgeSend[p] = map[int][]int32{}
		pl.cellRecv[p] = map[int][]int32{}
		pl.edgeRecv[p] = map[int][]int32{}
	}

	// Cell exchange: q receives its halo cells from their owners.
	for q := 0; q < nparts; q++ {
		for owner, cells := range d.Peers[q] {
			pl.cellRecv[q][int(owner)] = cells
			pl.cellSend[owner][q] = cells
		}
	}

	// Edge ownership and ghost-edge exchange.
	for p := 0; p < nparts; p++ {
		seen := make(map[int32]bool)
		var fluxEdges []int32
		for _, c := range d.Owned[p] {
			for _, e := range m.CellEdges(c) {
				if !seen[e] {
					seen[e] = true
					fluxEdges = append(fluxEdges, e)
				}
			}
		}
		// Ghost edges additionally include edges of halo cells (needed
		// for kinetic energy at halo cells and vorticity at boundary
		// vertices).
		ghostSeen := make(map[int32]bool)
		for _, c := range pl.DiagCells[p] {
			for _, e := range m.CellEdges(c) {
				if ghostSeen[e] {
					continue
				}
				ghostSeen[e] = true
				owner := int(edgeOwner(e))
				if owner == p {
					pl.UEdges[p] = append(pl.UEdges[p], e)
				} else {
					pl.edgeRecv[p][owner] = append(pl.edgeRecv[p][owner], e)
				}
			}
		}
		sort.Slice(fluxEdges, func(i, j int) bool { return fluxEdges[i] < fluxEdges[j] })
		pl.FluxEdges[p] = fluxEdges
		sort.Slice(pl.UEdges[p], func(i, j int) bool { return pl.UEdges[p][i] < pl.UEdges[p][j] })
	}
	// Mirror edge receive lists into the owners' send lists (sorted for
	// a deterministic wire order).
	for p := 0; p < nparts; p++ {
		for owner, edges := range pl.edgeRecv[p] {
			es := append([]int32(nil), edges...)
			sort.Slice(es, func(i, j int) bool { return es[i] < es[j] })
			pl.edgeRecv[p][owner] = es
			pl.edgeSend[owner][p] = es
		}
	}
	return pl
}

// sortedPeers returns the sorted union of the peers keyed in per-peer
// exchange lists.
func sortedPeers(lists ...map[int][]int32) []int {
	set := map[int]bool{}
	for _, m := range lists {
		for q := range m {
			set[q] = true
		}
	}
	peers := make([]int, 0, len(set))
	for q := range set {
		peers = append(peers, q)
	}
	sort.Ints(peers)
	return peers
}

// peerLists converts a per-peer map of entity lists into per-position
// lists aligned with the sorted peer order (nil where a peer exchanges
// nothing for this set).
func peerLists(m map[int][]int32, peers []int) [][]int32 {
	out := make([][]int32, len(peers))
	for i, q := range peers {
		out[i] = m[q]
	}
	return out
}

// Layout returns rank p's halo-exchange layout under this plan: the
// sorted peer list, the cell index set (set id 0) and the edge index
// set (set id 1). The layout is the decomposition handle an exchanger
// consumes — build with comm.NewExchangerWithLayout, swap after a
// repartition with HaloExchanger.SwapLayout (set ids are stable across
// epochs because every plan emits the same two sets in the same order).
func (pl *DistPlan) Layout(p int) *comm.Layout {
	peers := sortedPeers(pl.cellSend[p], pl.cellRecv[p], pl.edgeSend[p], pl.edgeRecv[p])
	return &comm.Layout{Peers: peers, Sets: []comm.IndexSet{
		{Send: peerLists(pl.cellSend[p], peers), Recv: peerLists(pl.cellRecv[p], peers)},
		{Send: peerLists(pl.edgeSend[p], peers), Recv: peerLists(pl.edgeRecv[p], peers)},
	}}
}

// Set ids of the state exchanger layout (see Layout).
const (
	stateCellSet = 0
	stateEdgeSet = 1
)

// OwnedSets returns rank p's dycore entity sets under this plan (Start/
// Finish hooks unset — the caller binds them to its exchanger). After a
// repartition, passing the new plan's sets to Engine.SetOwned rebuilds
// the interior/boundary split (overlap.go taint sets) for the new
// ownership.
func (pl *DistPlan) OwnedSets(p int) *dycore.OwnedSets {
	return &dycore.OwnedSets{
		TendCells: pl.TendCells[p],
		DiagCells: pl.DiagCells[p],
		FluxEdges: pl.FluxEdges[p],
		UEdges:    pl.UEdges[p],
	}
}

// newStateExchanger builds the unified halo exchanger of the dynamics
// state: one message per peer carries the cell halo (DryMass, ThetaM, W,
// Phi) and the ghost edges (U) — the linked-list aggregation of §3.1.3.
// Sensitivity follows §3.4.2: Phi feeds the FP64 pressure-gradient
// force and stays double on the wire; the advective state and winds
// travel FP32 under precision.Mixed.
func newStateExchanger(pl *DistPlan, r *comm.Rank, s *dycore.State, mode precision.Mode) *comm.HaloExchanger {
	ex := comm.NewExchangerWithLayout(r, mode, pl.Layout(r.ID()))
	nlev := pl.NLev
	ni := nlev + 1
	ex.RegisterSlice("dry_mass", s.DryMass, nlev, stateCellSet, false)
	ex.RegisterSlice("theta_m", s.ThetaM, nlev, stateCellSet, false)
	ex.RegisterSlice("w", s.W, ni, stateCellSet, false)
	ex.RegisterSlice("phi", s.Phi, ni, stateCellSet, true)
	ex.RegisterSlice("u", s.U, nlev, stateEdgeSet, false)
	return ex
}

// RunDistributedDynamics integrates the dry dynamics for the given number
// of steps across nparts ranks: the plain Run, for callers that want only
// the merged final state. It panics where Run returns an error (an
// invalid configuration, such as more parts than cells).
func RunDistributedDynamics(m *mesh.Mesh, nlev, nparts int, mode precision.Mode,
	initFn func(*dycore.State), steps int, dt float64) *dycore.State {
	s, _ := MustRun(RunSpec{Mesh: m, NLev: nlev, NParts: nparts, Mode: mode, Init: initFn, Steps: steps, Dt: dt})
	return s
}

// RunDistributedDynamicsTimed is RunDistributedDynamics with measured
// communication accounting: every rank's loop wall time accumulates
// under "dynamics" and its exchanger wait under "halo_wait" in tm, and
// the aggregate exchange statistics are returned. MeasuredCommShare(tm)
// turns the two counters into the measured communication fraction that
// replaces the modeled one in perfmodel.
func RunDistributedDynamicsTimed(m *mesh.Mesh, nlev, nparts int, mode precision.Mode,
	initFn func(*dycore.State), steps int, dt float64, tm *Timings) (*dycore.State, comm.ExchangeStats) {
	s, rep := MustRun(RunSpec{Mesh: m, NLev: nlev, NParts: nparts, Mode: mode, Init: initFn, Steps: steps, Dt: dt})
	for _, wall := range rep.RankWall {
		tm.Add("dynamics", wall)
	}
	if rep.Exchange.Rounds > 0 {
		tm.AddCalls("halo_wait", rep.Exchange.Wait, rep.Exchange.Rounds)
	}
	return s, rep.Exchange
}

// MeasuredCommShare returns the measured communication fraction of a
// timed distributed run: summed halo wait over summed dynamics wall time
// across ranks.
func MeasuredCommShare(tm *Timings) float64 {
	wait, _ := tm.Get("halo_wait")
	total, _ := tm.Get("dynamics")
	if total <= 0 {
		return 0
	}
	return float64(wait) / float64(total)
}

// gatherState collects every rank's owned region into dst on rank 0 via
// the Gather collective (ranks other than 0 leave dst untouched).
func gatherState(r *comm.Rank, dst, src *dycore.State, pl *DistPlan) {
	parts := r.Gather(0, packOwnedState(src, pl, r.ID()))
	if r.ID() != 0 {
		return
	}
	for q, buf := range parts {
		unpackOwnedState(dst, pl, q, buf)
	}
}

// packOwnedState serializes rank p's owned prognostic region into one
// flat buffer, in dycore.State.Region order.
func packOwnedState(s *dycore.State, pl *DistPlan, p int) []float64 {
	cells, edges := pl.TendCells[p], pl.UEdges[p]
	buf := make([]float64, 0, dycore.RegionLen(s.NLev, len(cells), len(edges)))
	s.Region(cells, edges, func(run []float64) { buf = append(buf, run...) })
	return buf
}

// unpackOwnedState writes rank p's packed region into dst.
func unpackOwnedState(dst *dycore.State, pl *DistPlan, p int, buf []float64) {
	cells, edges := pl.TendCells[p], pl.UEdges[p]
	if len(buf) != dycore.RegionLen(dst.NLev, len(cells), len(edges)) {
		panic("core: distributed gather size mismatch")
	}
	dst.Region(cells, edges, func(run []float64) { buf = buf[copy(run, buf):] })
}
