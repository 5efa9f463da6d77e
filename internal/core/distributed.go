package core

import (
	"slices"

	"gristgo/internal/comm"
	"gristgo/internal/dycore"
	"gristgo/internal/mesh"
	"gristgo/internal/partition"
	"gristgo/internal/precision"
	"gristgo/internal/tracer"
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

	// Edge ownership and ghost-edge exchange. The flux edges are the
	// owned cells' edges; ghost edges additionally include edges of halo
	// cells (needed for kinetic energy at halo cells and vorticity at
	// boundary vertices). Ascending edge order is the wire order.
	for p := 0; p < nparts; p++ {
		pl.FluxEdges[p] = sortedEdges(m, d.Owned[p])
		for _, e := range sortedEdges(m, pl.DiagCells[p]) {
			if owner := pl.edgeOwner(e); owner == p {
				pl.UEdges[p] = append(pl.UEdges[p], e)
			} else {
				pl.edgeRecv[p][owner] = append(pl.edgeRecv[p][owner], e)
			}
		}
	}
	// Mirror edge receive lists into the owners' send lists.
	for p := 0; p < nparts; p++ {
		for owner, edges := range pl.edgeRecv[p] {
			pl.edgeSend[owner][p] = edges
		}
	}
	return pl
}

// edgeOwner returns the part owning edge e: that of its first cell.
func (pl *DistPlan) edgeOwner(e int32) int { return int(pl.Decomp.Part[pl.Mesh.EdgeCell[e][0]]) }

// sortedPeers returns the sorted union of the peers keyed in per-peer
// exchange lists.
func sortedPeers(lists ...map[int][]int32) []int {
	var peers []int
	for _, m := range lists {
		for q := range m {
			peers = append(peers, q)
		}
	}
	slices.Sort(peers)
	return slices.Compact(peers)
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

// Set ids of the layouts a plan derives (see Layout and tracerLayout).
const (
	cellSet = 0
	edgeSet = 1
)

// sortedEdges returns the ascending, deduplicated edges of the cells.
func sortedEdges(m *mesh.Mesh, cells []int32) []int32 {
	var edges []int32
	for _, c := range cells {
		edges = append(edges, m.CellEdges(c)...)
	}
	slices.Sort(edges)
	return slices.Compact(edges)
}

// tracerLayout returns rank p's tracer-transport sets and their halo
// layout under this plan. The FCT limiter's dependency chain sets the
// depths: the limited flux at an owned cell needs the limiter
// coefficients of its ring-1 neighbours, which need provisional ratios at
// ring 2, which need tracer values at ring 3. So the transport computes
// owned + rings 1-2 and commits the owned cells; the cell set mirrors the
// tracer values of rings 1-3, the edge set the averaged mass flux on the
// compute region's edges owned elsewhere. Peers are symmetric (owners of
// cells within three rings), so each rank derives its send lists as its
// peers' receive lists, and a dry run never builds any of this.
func (pl *DistPlan) tracerLayout(p int) (*tracer.OwnedSets, *comm.Layout) {
	m, dec := pl.Mesh, pl.Decomp
	region := func(q int) (cells, edges []int32) {
		cells = append(slices.Clone(dec.Owned[q]), dec.HaloRings(m, q, 2)...)
		return cells, sortedEdges(m, cells)
	}
	// recv returns part q's receive lists keyed by owner.
	recv := func(q int) (cells, flux map[int][]int32) {
		cells, flux = map[int][]int32{}, map[int][]int32{}
		for _, c := range dec.HaloRings(m, q, 3) {
			o := int(dec.Part[c])
			cells[o] = append(cells[o], c)
		}
		_, edges := region(q)
		for _, e := range edges {
			if o := pl.edgeOwner(e); o != q {
				flux[o] = append(flux[o], e)
			}
		}
		return cells, flux
	}
	cellRecv, fluxRecv := recv(p)
	peers := sortedPeers(cellRecv, fluxRecv)
	cellSend, fluxSend := map[int][]int32{}, map[int][]int32{}
	for _, q := range peers {
		qc, qf := recv(q)
		cellSend[q], fluxSend[q] = qc[p], qf[p]
	}
	cells, edges := region(p)
	return &tracer.OwnedSets{Cells: cells, Commit: pl.TendCells[p], Edges: edges},
		&comm.Layout{Peers: peers, Sets: []comm.IndexSet{
			{Send: peerLists(cellSend, peers), Recv: peerLists(cellRecv, peers)},
			{Send: peerLists(fluxSend, peers), Recv: peerLists(fluxRecv, peers)},
		}}
}

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
	ex.RegisterSlice("dry_mass", s.DryMass, nlev, cellSet, false)
	ex.RegisterSlice("theta_m", s.ThetaM, nlev, cellSet, false)
	ex.RegisterSlice("w", s.W, ni, cellSet, false)
	ex.RegisterSlice("phi", s.Phi, ni, cellSet, true)
	ex.RegisterSlice("u", s.U, nlev, edgeSet, false)
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

// gatherState collects every rank's owned region of the state, and of the
// tracer field when src carries one, into dst on rank 0 via the Gather
// collective (ranks other than 0 leave dst untouched).
func gatherState(r *comm.Rank, dst, src *dycore.State, dstT, srcT *tracer.Field, pl *DistPlan) {
	parts := r.Gather(0, packOwnedState(src, srcT, pl, r.ID()))
	if r.ID() != 0 {
		return
	}
	for q, buf := range parts {
		unpackOwnedState(dst, dstT, pl, q, buf)
	}
}

// ownedRegion visits rank p's owned region in the one order every packed
// form of it uses: the dycore.State.Region runs of its owned cells and
// edges, then, when f is non-nil, each owned cell's tracer mass and
// species runs.
func ownedRegion(s *dycore.State, f *tracer.Field, pl *DistPlan, p int, visit func(run []float64)) {
	cells := pl.TendCells[p]
	s.Region(cells, pl.UEdges[p], visit)
	if f == nil {
		return
	}
	nlev := pl.NLev
	for _, c := range cells {
		b := int(c) * nlev
		visit(f.Mass[b : b+nlev])
		for t := range f.Q {
			visit(f.Q[t][b : b+nlev])
		}
	}
}

// ownedLen returns how many words ownedRegion visits.
func ownedLen(pl *DistPlan, p int, f *tracer.Field) int {
	n := dycore.RegionLen(pl.NLev, len(pl.TendCells[p]), len(pl.UEdges[p]))
	if f != nil {
		n += len(pl.TendCells[p]) * (1 + len(f.Q)) * pl.NLev
	}
	return n
}

// packOwnedState serializes rank p's owned region into one flat buffer,
// in ownedRegion order.
func packOwnedState(s *dycore.State, f *tracer.Field, pl *DistPlan, p int) []float64 {
	buf := make([]float64, 0, ownedLen(pl, p, f))
	ownedRegion(s, f, pl, p, func(run []float64) { buf = append(buf, run...) })
	return buf
}

// unpackOwnedState writes rank p's packed region into dst and f.
func unpackOwnedState(dst *dycore.State, f *tracer.Field, pl *DistPlan, p int, buf []float64) {
	if len(buf) != ownedLen(pl, p, f) {
		panic("core: distributed gather size mismatch")
	}
	ownedRegion(dst, f, pl, p, func(run []float64) { buf = buf[copy(run, buf):] })
}
