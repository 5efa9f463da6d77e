// Package tracer implements the passive tracer transport equation of the
// dynamical core (bottom-left of the paper's Fig. 3): six prognostic
// tracer species advected by the time-averaged dry-mass flux with a
// monotone Zalesak flux-corrected-transport (FCT) horizontal limiter —
// the paper's tracer_transport_hori_flux_limiter kernel (Fig. 9).
//
// Per §3.4.2, this equation runs almost entirely in lowered precision;
// the sole double-precision input is the accumulated mass flux delta-pi*V
// taken from the dry-mass equation. Its loops, like the dycore's, run
// through the one loop driver, mesh.ParallelFor (§3.3.4).
package tracer

import (
	"runtime"
	"slices"

	"gristgo/internal/mesh"
	"gristgo/internal/precision"
	"gristgo/internal/telemetry"
)

// Species indexes the six prognostic tracers.
type Species int

const (
	QV Species = iota // water vapor
	QC                // cloud liquid
	QR                // rain
	QI                // cloud ice
	QS                // snow
	QG                // graupel
	NumSpecies
)

var speciesNames = [NumSpecies]string{"qv", "qc", "qr", "qi", "qs", "qg"}

func (s Species) String() string { return speciesNames[s] }

// Field holds the tracer state: mass-weighted mixing ratios
// Q[t][c*NLev+k] = delta-pi * q, plus the tracer-step dry mass the
// ratios are defined against (advanced with the same averaged flux for
// free-stream preservation).
type Field struct {
	M    *mesh.Mesh
	NLev int
	Q    [NumSpecies][]float64
	Mass []float64 // tracer-step delta-pi
}

// NewField allocates a tracer field; initial dry mass is copied from dpi.
func NewField(m *mesh.Mesh, nlev int, dpi []float64) *Field {
	f := &Field{M: m, NLev: nlev, Mass: append([]float64(nil), dpi...)}
	for t := range f.Q {
		f.Q[t] = make([]float64, m.NCells*nlev)
	}
	return f
}

// MixingRatio returns q of a species at (cell, level).
func (f *Field) MixingRatio(sp Species, c, k int) float64 {
	i := c*f.NLev + k
	return f.Q[sp][i] / f.Mass[i]
}

// SetMixingRatio sets q of a species at (cell, level).
func (f *Field) SetMixingRatio(sp Species, c, k int, q float64) {
	i := c*f.NLev + k
	f.Q[sp][i] = q * f.Mass[i]
}

// GlobalTracerMass returns the area-integrated mass of a species, a
// conserved invariant of the transport.
func (f *Field) GlobalTracerMass(sp Species) float64 {
	var total float64
	for c := 0; c < f.M.NCells; c++ {
		var col float64
		for k := 0; k < f.NLev; k++ {
			col += f.Q[sp][c*f.NLev+k]
		}
		total += col * f.M.CellArea[c]
	}
	return total
}

// Transport advances tracers with the accumulated mass flux.
type Transport interface {
	// Step advances all species by dt using the edge mass flux
	// (Pa m/s, double precision, already averaged over the dynamics
	// sub-steps).
	Step(f *Field, massFlux []float64, dt float64)
	Mode() precision.Mode
	// SetOwned restricts computation for distributed runs (nil resets to
	// the whole mesh): Cells is the compute region (owned + two halo
	// rings), Commit the cells whose updated values are kept (owned),
	// Edges the edges of the compute region.
	SetOwned(o *OwnedSets)
	// SetHostParallelism chunks every loop of Step across n host workers
	// through mesh.ParallelFor, as the dycore's does (0/1 = serial,
	// negative = all CPUs); the output is bitwise the serial one.
	SetHostParallelism(n int)
	// SetTelemetry attaches a flight recorder: each Step emits a
	// tracer_step span attributed to rank (nil recorder detaches).
	SetTelemetry(rec *telemetry.Recorder, rank int32)
	// SetTelemetryStep stamps them with a per-rank step (> 0; 0: shared).
	SetTelemetryStep(step int64)
}

// OwnedSets is the distributed work description of a Transport.
type OwnedSets struct {
	Cells  []int32
	Commit []int32
	Edges  []int32
}

// New creates a Transport in the given precision mode.
func New(m *mesh.Mesh, nlev int, mode precision.Mode) Transport {
	if mode == precision.Mixed {
		return newTransport[float32](m, nlev, mode)
	}
	return newTransport[float64](m, nlev, mode)
}

type transport[T precision.Real] struct {
	m       *mesh.Mesh
	nlev    int
	mode    precision.Mode
	workers int // host workers of every loop (<= 1: serial)

	// sets is the iteration space of the kernels: identity lists (the
	// whole mesh) until SetOwned narrows it to one rank's share. read is
	// every cell whose old mixing ratio a step reads: Cells, their
	// neighbours and the endpoints of Edges.
	sets OwnedSets
	read []int32

	// Work arrays in working precision T (§3.4.2: the tracer equation is
	// computed almost entirely in lowered precision).
	fluxLo  []T // low-order (upwind) tracer flux per edge
	fluxA   []T // antidiffusive flux per edge
	ratio   []T // old mixing ratio T(q)/T(Mass)
	qtd     []T // transported-diffused provisional ratio
	qmin    []T // Zalesak bounds
	qmax    []T
	rPlus   []T       // P+ then R+ (limiter inflow coefficient)
	rMinus  []T       // P- then R-
	massT   []T       // T(newMass)
	newMass []float64 // updated delta-pi (double precision)

	// The step in flight, read by the loop bodies; each body is bound once
	// so that handing it to the loop driver allocates nothing.
	f           *Field
	q, massFlux []float64
	dt          float64

	massFn, ratioFn, edgeFn, lowFn, limitFn, applyFn, commitFn func(ids []int32)

	// Optional flight recorder for Step spans (nil: disabled).
	rec     *telemetry.Recorder
	telRank int32
	telStep int64
}

func newTransport[T precision.Real](m *mesh.Mesh, nlev int, mode precision.Mode) *transport[T] {
	n := m.NCells * nlev
	ne := m.NEdges * nlev
	tr := &transport[T]{
		m: m, nlev: nlev, mode: mode,
		fluxLo:  make([]T, ne),
		fluxA:   make([]T, ne),
		ratio:   make([]T, n),
		qtd:     make([]T, n),
		qmin:    make([]T, n),
		qmax:    make([]T, n),
		rPlus:   make([]T, n),
		rMinus:  make([]T, n),
		massT:   make([]T, n),
		newMass: make([]float64, n),
	}
	tr.massFn, tr.ratioFn, tr.edgeFn, tr.lowFn = tr.massPass, tr.ratioPass, tr.edgePass, tr.lowPass
	tr.limitFn, tr.applyFn, tr.commitFn = tr.limitPass, tr.applyPass, tr.commitPass
	tr.SetOwned(nil)
	return tr
}

func (tr *transport[T]) Mode() precision.Mode { return tr.mode }

func (tr *transport[T]) SetOwned(o *OwnedSets) {
	if o == nil { // the whole mesh, where every cell is read
		ids := mesh.IdentityIDs(max(tr.m.NCells, tr.m.NEdges))
		cells := ids[:tr.m.NCells]
		tr.sets, tr.read = OwnedSets{Cells: cells, Commit: cells, Edges: ids[:tr.m.NEdges]}, cells
		return
	}
	tr.sets = *o
	read := slices.Clone(o.Cells)
	for _, c := range o.Cells {
		read = append(read, tr.m.CellCells(c)...)
	}
	for _, e := range o.Edges {
		read = append(read, tr.m.EdgeCell[e][:]...)
	}
	slices.Sort(read)
	tr.read = slices.Compact(read)
}

func (tr *transport[T]) SetHostParallelism(n int) {
	if n < 0 {
		n = runtime.GOMAXPROCS(0)
	}
	tr.workers = n
}

func (tr *transport[T]) SetTelemetry(rec *telemetry.Recorder, rank int32) {
	tr.rec = rec
	tr.telRank = rank
}

func (tr *transport[T]) SetTelemetryStep(step int64) { tr.telStep = step }

// Step advances every species: first the tracer-step dry mass with the
// divergence of the mass flux, then each species with FCT-limited fluxes.
// Each phase is one loop over an entity list, so the loops are separated
// by the driver's barriers and every (cell, level) or (edge, level) value
// is computed as the serial loop computes it.
func (tr *transport[T]) Step(f *Field, massFlux []float64, dt float64) {
	var sp telemetry.Span
	if tr.telStep > 0 {
		sp = tr.rec.BeginAt("tracer_step", tr.telRank, tr.telStep)
	} else {
		sp = tr.rec.Begin("tracer_step", tr.telRank)
	}
	tr.f, tr.massFlux, tr.dt = f, massFlux, dt
	w, cells := tr.workers, tr.sets.Cells
	mesh.ParallelFor(w, cells, tr.massFn)
	for _, q := range f.Q { // the HoriFluxLimiter kernel, one species at a time
		tr.q = q
		mesh.ParallelFor(w, tr.read, tr.ratioFn)
		mesh.ParallelFor(w, tr.sets.Edges, tr.edgeFn)
		mesh.ParallelFor(w, cells, tr.lowFn)
		mesh.ParallelFor(w, cells, tr.limitFn)
		mesh.ParallelFor(w, tr.sets.Commit, tr.applyFn)
	}
	mesh.ParallelFor(w, tr.sets.Commit, tr.commitFn)
	tr.f, tr.q, tr.massFlux = nil, nil, nil
	sp.End()
}

// massPass computes the new tracer-step mass (double precision like the
// flux itself) and its working-precision copy.
func (tr *transport[T]) massPass(ids []int32) {
	m, nlev := tr.m, tr.nlev
	for _, c := range ids {
		inv := tr.dt / m.CellArea[c]
		nm, mt := mesh.Row(tr.newMass, c, nlev), mesh.Row(tr.massT, c, nlev)
		copy(nm, mesh.Row(tr.f.Mass, c, nlev))
		for kk := m.CellOff[c]; kk < m.CellOff[c+1]; kk++ {
			ed := m.CellEdge[kk]
			s, mf := float64(m.CellEdgeSign[kk])*m.DvEdge[ed]*inv, mesh.Row(tr.massFlux, ed, nlev)
			for k := range nm {
				nm[k] -= s * mf[k]
			}
		}
		for k, v := range nm {
			mt[k] = T(v)
		}
	}
}

// ratioPass computes each old mixing ratio once, for every cell a later
// pass reads it at.
func (tr *transport[T]) ratioPass(ids []int32) {
	for _, c := range ids {
		r, q, mass := mesh.Row(tr.ratio, c, tr.nlev), mesh.Row(tr.q, c, tr.nlev), mesh.Row(tr.f.Mass, c, tr.nlev)
		for k := range r {
			r[k] = T(q[k]) / T(mass[k])
		}
	}
}

// edgePass computes the low-order (upwind) and antidiffusive (centered
// minus upwind) tracer fluxes.
func (tr *transport[T]) edgePass(ids []int32) {
	m, nlev := tr.m, tr.nlev
	for _, e := range ids {
		lo, fa, mf := mesh.Row(tr.fluxLo, e, nlev), mesh.Row(tr.fluxA, e, nlev), mesh.Row(tr.massFlux, e, nlev)
		q0, q1 := mesh.Row(tr.ratio, m.EdgeCell[e][0], nlev), mesh.Row(tr.ratio, m.EdgeCell[e][1], nlev)
		for k := range lo {
			f, up := T(mf[k]), q1[k]
			if f >= 0 {
				up = q0[k]
			}
			lo[k] = f * up
			fa[k] = f*(q0[k]+q1[k])/2 - lo[k]
		}
	}
}

// lowPass is the provisional low-order update (monotone), as a mixing
// ratio against the new mass.
func (tr *transport[T]) lowPass(ids []int32) {
	m, nlev := tr.m, tr.nlev
	for _, c := range ids {
		invA := T(tr.dt / m.CellArea[c])
		qtd, q, mass := mesh.Row(tr.qtd, c, nlev), mesh.Row(tr.q, c, nlev), mesh.Row(tr.massT, c, nlev)
		for k := range qtd {
			qtd[k] = T(q[k])
		}
		for kk := m.CellOff[c]; kk < m.CellOff[c+1]; kk++ {
			ed := m.CellEdge[kk]
			s, lo := T(m.CellEdgeSign[kk])*T(m.DvEdge[ed])*invA, mesh.Row(tr.fluxLo, ed, nlev)
			for k := range qtd {
				qtd[k] -= s * lo[k]
			}
		}
		for k := range qtd {
			qtd[k] /= mass[k]
		}
	}
}

// limitPass computes the Zalesak bounds from the old and provisional
// ratios of the cell and its neighbours, then the limiter coefficients
// R+/R- from the anti-diffusive in- and outflow P+/P-. Every loop is
// level-inner; each (cell, level) compares and sums in neighbour order.
func (tr *transport[T]) limitPass(ids []int32) {
	m, nlev := tr.m, tr.nlev
	for _, c := range ids {
		lo, hi, qtd := mesh.Row(tr.qmin, c, nlev), mesh.Row(tr.qmax, c, nlev), mesh.Row(tr.qtd, c, nlev)
		copy(lo, mesh.Row(tr.ratio, c, nlev))
		copy(hi, lo)
		for kk := m.CellOff[c] - 1; kk < m.CellOff[c+1]; kk++ { // the cell itself, then its neighbours
			nb := c
			if kk >= m.CellOff[c] {
				nb = m.CellCell[kk]
			}
			rn, qn := mesh.Row(tr.ratio, nb, nlev), mesh.Row(tr.qtd, nb, nlev)
			for k := range lo {
				l, h := lo[k], hi[k]
				if rn[k] < l {
					l = rn[k]
				}
				if rn[k] > h {
					h = rn[k]
				}
				if qn[k] < l {
					l = qn[k]
				}
				if qn[k] > h {
					h = qn[k]
				}
				lo[k], hi[k] = l, h
			}
		}

		invA := T(tr.dt / m.CellArea[c])
		pPlus, pMinus, mass := mesh.Row(tr.rPlus, c, nlev), mesh.Row(tr.rMinus, c, nlev), mesh.Row(tr.massT, c, nlev)
		clear(pPlus)
		clear(pMinus)
		for kk := m.CellOff[c]; kk < m.CellOff[c+1]; kk++ {
			ed := m.CellEdge[kk]
			s, fa := T(m.CellEdgeSign[kk])*T(m.DvEdge[ed])*invA, mesh.Row(tr.fluxA, ed, nlev)
			for k := range pPlus {
				if a := s * fa[k]; a < 0 {
					pPlus[k] -= a // inflow raises q
				} else {
					pMinus[k] += a
				}
			}
		}
		for k := range pPlus { // capacity is the available headroom
			pPlus[k] = limiterRatio((hi[k]-qtd[k])*mass[k], pPlus[k]*mass[k])
			pMinus[k] = limiterRatio((qtd[k]-lo[k])*mass[k], pMinus[k]*mass[k])
		}
	}
}

// applyPass applies the limited antidiffusive fluxes to the commit cells
// only — the limited flux of an edge on the cut uses identical r
// coefficients on both owning ranks, so conservation holds across it —
// and stores the result back as mass-weighted double precision.
func (tr *transport[T]) applyPass(ids []int32) {
	m, nlev := tr.m, tr.nlev
	for _, c := range ids {
		invA := T(tr.dt / m.CellArea[c])
		qtd, rp, rm, mass := mesh.Row(tr.qtd, c, nlev), mesh.Row(tr.rPlus, c, nlev), mesh.Row(tr.rMinus, c, nlev), mesh.Row(tr.massT, c, nlev)
		for kk := m.CellOff[c]; kk < m.CellOff[c+1]; kk++ {
			ed, nb := m.CellEdge[kk], m.CellCell[kk]
			sgn := T(m.CellEdgeSign[kk])
			s, fa := sgn*T(m.DvEdge[ed])*invA, mesh.Row(tr.fluxA, ed, nlev)
			np, nm := mesh.Row(tr.rPlus, nb, nlev), mesh.Row(tr.rMinus, nb, nlev)
			for k := range qtd {
				var cLim T
				if fa[k]*sgn >= 0 { // outflow from c into nb
					cLim = minT(rm[k], np[k])
				} else { // inflow into c from nb
					cLim = minT(rp[k], nm[k])
				}
				qtd[k] -= s * cLim * fa[k] / mass[k]
			}
		}
		q, nm := mesh.Row(tr.q, c, nlev), mesh.Row(tr.newMass, c, nlev)
		for k := range q {
			if q[k] = float64(qtd[k]) * nm[k]; q[k] < 0 { // guard rounding
				q[k] = 0
			}
		}
	}
}

// commitPass keeps the new tracer-step mass of the commit cells.
func (tr *transport[T]) commitPass(ids []int32) {
	for _, c := range ids {
		copy(mesh.Row(tr.f.Mass, c, tr.nlev), mesh.Row(tr.newMass, c, tr.nlev))
	}
}

// limiterRatio returns min(1, capacity/demand) handling zero demand.
func limiterRatio[T precision.Real](capacity, demand T) T {
	if demand <= 0 {
		return 1
	}
	r := capacity / demand
	if r > 1 {
		return 1
	}
	if r < 0 {
		return 0
	}
	return r
}

func minT[T precision.Real](a, b T) T {
	if a < b {
		return a
	}
	return b
}
