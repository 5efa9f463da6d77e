package core

import (
	"fmt"
	"sort"

	"gristgo/internal/comm"
	"gristgo/internal/dycore"
	"gristgo/internal/mesh"
	"gristgo/internal/precision"
	"gristgo/internal/tracer"
)

// ModelPlan extends the dynamics plan with the tracer-transport work and
// exchange sets. The FCT limiter's dependency chain (limited flux at an
// owned cell needs the limiter coefficients of ring-1 neighbors, which
// need provisional ratios at ring-2, which need tracer values at ring-3)
// sets the halo depths.
type ModelPlan struct {
	*DistPlan

	TracCells [][]int32 // per rank: owned + rings 1-2 (compute region)
	TracEdges [][]int32 // per rank: edges of the compute region

	// Tracer cell exchange (rings 1-3) and mass-flux edge exchange
	// (ghost edges of the compute region), per rank keyed by peer.
	qSend, qRecv       []map[int][]int32
	fluxSend, fluxRecv []map[int][]int32
}

// NewModelPlan builds the combined plan.
func NewModelPlan(m *mesh.Mesh, nlev, nparts int, seed int64) *ModelPlan {
	base := NewDistPlan(m, nlev, nparts, seed)
	pl := &ModelPlan{
		DistPlan:  base,
		TracCells: make([][]int32, nparts),
		TracEdges: make([][]int32, nparts),
		qSend:     make([]map[int][]int32, nparts),
		qRecv:     make([]map[int][]int32, nparts),
		fluxSend:  make([]map[int][]int32, nparts),
		fluxRecv:  make([]map[int][]int32, nparts),
	}
	part := base.Decomp.Part
	for p := 0; p < nparts; p++ {
		pl.qSend[p] = map[int][]int32{}
		pl.qRecv[p] = map[int][]int32{}
		pl.fluxSend[p] = map[int][]int32{}
		pl.fluxRecv[p] = map[int][]int32{}
	}

	edgeOwner := func(e int32) int { return int(part[m.EdgeCell[e][0]]) }

	for p := 0; p < nparts; p++ {
		ring2 := base.Decomp.HaloRings(m, p, 2)
		pl.TracCells[p] = append(append([]int32(nil), base.Decomp.Owned[p]...), ring2...)

		// Compute-region edges, deduplicated.
		seen := map[int32]bool{}
		for _, c := range pl.TracCells[p] {
			for _, e := range m.CellEdges(c) {
				if !seen[e] {
					seen[e] = true
					pl.TracEdges[p] = append(pl.TracEdges[p], e)
				}
			}
		}
		sort.Slice(pl.TracEdges[p], func(i, j int) bool { return pl.TracEdges[p][i] < pl.TracEdges[p][j] })

		// Tracer value halo: rings 1-3 grouped by owner.
		for _, c := range base.Decomp.HaloRings(m, p, 3) {
			pl.qRecv[p][int(part[c])] = append(pl.qRecv[p][int(part[c])], c)
		}
		// Mass-flux ghosts: compute-region edges owned elsewhere.
		for _, e := range pl.TracEdges[p] {
			if o := edgeOwner(e); o != p {
				pl.fluxRecv[p][o] = append(pl.fluxRecv[p][o], e)
			}
		}
	}
	// Mirror receive lists into send lists.
	for p := 0; p < nparts; p++ {
		for o, cells := range pl.qRecv[p] {
			pl.qSend[o][p] = cells
		}
		for o, edges := range pl.fluxRecv[p] {
			pl.fluxSend[o][p] = edges
		}
	}
	return pl
}

// newTracerExchanger builds the unified exchanger of the tracer
// transport: tracer mass and mixing ratios over the rings-1-3 cell halo,
// plus the averaged mass flux over the compute-region ghost edges. The
// accumulated mass flux is the one tracer-equation term that must stay
// FP64 under every mode (§3.4.2); tracer values travel FP32 under
// precision.Mixed. flux must be the caller's persistent buffer — the
// registration captures the slice.
func newTracerExchanger(pl *ModelPlan, r *comm.Rank, f *tracer.Field, flux []float64, mode precision.Mode) *comm.HaloExchanger {
	p := r.ID()
	peers := sortedPeers(pl.qSend[p], pl.qRecv[p], pl.fluxSend[p], pl.fluxRecv[p])
	ex := comm.NewExchanger(r, mode, peers)
	cellSet := ex.AddIndexSet(peerLists(pl.qSend[p], peers), peerLists(pl.qRecv[p], peers))
	edgeSet := ex.AddIndexSet(peerLists(pl.fluxSend[p], peers), peerLists(pl.fluxRecv[p], peers))
	nlev := f.NLev
	ex.RegisterSlice("tracer_mass", f.Mass, nlev, cellSet, false)
	for t := range f.Q {
		ex.RegisterSlice(fmt.Sprintf("q%d", t), f.Q[t], nlev, cellSet, false)
	}
	ex.RegisterSlice("mass_flux_avg", flux, nlev, edgeSet, true)
	return ex
}

// RunDistributedModel integrates dynamics plus tracer transport across
// nparts ranks: nTrac tracer rounds, each sub-cycling nDyn dynamics
// steps of dtDyn and advecting tracers over the elapsed interval with
// the rank-locally accumulated, halo-completed mass flux. The merged
// final state and tracer field are returned; results match the serial
// model to rounding.
func RunDistributedModel(m *mesh.Mesh, nlev, nparts int, mode precision.Mode,
	initFn func(*dycore.State, *tracer.Field), nTrac, nDyn int, dtDyn float64) (*dycore.State, *tracer.Field) {

	pl := NewModelPlan(m, nlev, nparts, defaultSeed)
	finalS := dycore.NewState(m, nlev)
	finalT := tracer.NewField(m, nlev, finalS.DryMass)

	comm.Run(nparts, func(r *comm.Rank) {
		p := r.ID()
		eng := dycore.New(m, nlev, mode)
		trans := tracer.New(m, nlev, mode)
		field := tracer.NewField(m, nlev, eng.State().DryMass)
		initFn(eng.State(), field)

		ex := newStateExchanger(pl.DistPlan, r, eng.State(), mode)
		bindOwned(eng, ex, pl.DistPlan, p, false)
		trans.SetOwned(&tracer.OwnedSets{
			Cells:  pl.TracCells[p],
			Commit: pl.TendCells[p],
			Edges:  pl.TracEdges[p],
		})

		// avg is persistent: the tracer exchanger's registration captures
		// it, and a stable buffer keeps the steady state allocation-free.
		avg := make([]float64, len(eng.MassFluxAccum()))
		tex := newTracerExchanger(pl, r, field, avg, mode)

		for it := 0; it < nTrac; it++ {
			eng.ResetMassFluxAccum()
			for id := 0; id < nDyn; id++ {
				eng.Step(dtDyn)
			}
			acc := eng.MassFluxAccum()
			n := float64(eng.AccumSteps())
			for i, a := range acc {
				avg[i] = a / n
			}
			tex.Exchange()
			trans.Step(field, avg, float64(nDyn)*dtDyn)
		}

		// Gather owned regions to rank 0.
		parts := r.Gather(0, packOwnedModel(eng.State(), field, pl, p))
		if p == 0 {
			for q, buf := range parts {
				unpackOwnedModel(finalS, finalT, pl, q, buf)
			}
		}
	})
	return finalS, finalT
}

// packOwnedModel serializes rank p's owned tracer columns and prognostic
// thermodynamic state into one flat buffer.
func packOwnedModel(s *dycore.State, f *tracer.Field, pl *ModelPlan, p int) []float64 {
	nlev := pl.NLev
	buf := make([]float64, 0, len(pl.TendCells[p])*(len(f.Q)+3)*nlev)
	for _, c := range pl.TendCells[p] {
		base := int(c) * nlev
		buf = append(buf, f.Mass[base:base+nlev]...)
		for t := range f.Q {
			buf = append(buf, f.Q[t][base:base+nlev]...)
		}
		buf = append(buf, s.DryMass[base:base+nlev]...)
		buf = append(buf, s.ThetaM[base:base+nlev]...)
	}
	return buf
}

// unpackOwnedModel writes rank p's packed region into the merged state
// and tracer field.
func unpackOwnedModel(dst *dycore.State, dt *tracer.Field, pl *ModelPlan, p int, buf []float64) {
	nlev := pl.NLev
	pos := 0
	for _, c := range pl.TendCells[p] {
		base := int(c) * nlev
		pos += copy(dt.Mass[base:base+nlev], buf[pos:])
		for t := range dt.Q {
			pos += copy(dt.Q[t][base:base+nlev], buf[pos:])
		}
		pos += copy(dst.DryMass[base:base+nlev], buf[pos:])
		pos += copy(dst.ThetaM[base:base+nlev], buf[pos:])
	}
	if pos != len(buf) {
		panic("core: model gather size mismatch")
	}
}
