// Package tracer implements the passive tracer transport equation of the
// dynamical core (bottom-left of the paper's Fig. 3): six prognostic
// tracer species advected by the time-averaged dry-mass flux with a
// monotone Zalesak flux-corrected-transport (FCT) horizontal limiter —
// the paper's tracer_transport_hori_flux_limiter kernel (Fig. 9).
//
// Per §3.4.2, this equation runs almost entirely in lowered precision;
// the sole double-precision input is the accumulated mass flux delta-pi*V
// taken from the dry-mass equation.
package tracer

import (
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
	m    *mesh.Mesh
	nlev int
	mode precision.Mode

	// sets is the iteration space of the kernels: identity lists (the
	// whole mesh) until SetOwned narrows it to one rank's share.
	sets OwnedSets

	// Work arrays in working precision T (§3.4.2: the tracer equation is
	// computed almost entirely in lowered precision).
	fluxLo  []T // low-order (upwind) tracer flux per edge
	fluxA   []T // antidiffusive flux per edge
	qtd     []T // transported-diffused provisional ratio
	qmin    []T
	qmax    []T
	rPlus   []T
	rMinus  []T
	newMass []float64 // updated delta-pi (double precision)

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
		qtd:     make([]T, n),
		qmin:    make([]T, n),
		qmax:    make([]T, n),
		rPlus:   make([]T, n),
		rMinus:  make([]T, n),
		newMass: make([]float64, n),
	}
	tr.SetOwned(nil)
	return tr
}

func (tr *transport[T]) Mode() precision.Mode { return tr.mode }

func (tr *transport[T]) SetOwned(o *OwnedSets) {
	if o == nil {
		ids := mesh.IdentityIDs(max(tr.m.NCells, tr.m.NEdges))
		cells := ids[:tr.m.NCells]
		o = &OwnedSets{Cells: cells, Commit: cells, Edges: ids[:tr.m.NEdges]}
	}
	tr.sets = *o
}

func (tr *transport[T]) SetTelemetry(rec *telemetry.Recorder, rank int32) {
	tr.rec = rec
	tr.telRank = rank
}

func (tr *transport[T]) SetTelemetryStep(step int64) { tr.telStep = step }

// Step advances every species: first the tracer-step dry mass with the
// divergence of the mass flux, then each species with FCT-limited fluxes.
//
//grist:hotpath
func (tr *transport[T]) Step(f *Field, massFlux []float64, dt float64) {
	var sp telemetry.Span
	if tr.telStep > 0 {
		sp = tr.rec.BeginAt("tracer_step", tr.telRank, tr.telStep)
	} else {
		sp = tr.rec.Begin("tracer_step", tr.telRank)
	}
	m := tr.m
	nlev := tr.nlev

	// New tracer-step mass (double precision like the flux itself).
	for _, id := range tr.sets.Cells {
		c := int(id)
		inv := dt / m.CellArea[c]
		for k := 0; k < nlev; k++ {
			tr.newMass[c*nlev+k] = f.Mass[c*nlev+k]
		}
		for kk := m.CellOff[c]; kk < m.CellOff[c+1]; kk++ {
			ed := m.CellEdge[kk]
			s := float64(m.CellEdgeSign[kk]) * m.DvEdge[ed] * inv
			for k := 0; k < nlev; k++ {
				tr.newMass[c*nlev+k] -= s * massFlux[int(ed)*nlev+k]
			}
		}
	}

	for sp := range f.Q {
		tr.advectSpecies(f, Species(sp), massFlux, dt)
	}
	for _, id := range tr.sets.Commit {
		c := int(id)
		copy(f.Mass[c*nlev:(c+1)*nlev], tr.newMass[c*nlev:(c+1)*nlev])
	}
	sp.End()
}

// advectSpecies performs one FCT-limited advection step of a species.
//
//grist:hotpath
func (tr *transport[T]) advectSpecies(f *Field, sp Species, massFlux []float64, dt float64) {
	m := tr.m
	nlev := tr.nlev
	q := f.Q[sp]

	// --- Low-order (upwind) and antidiffusive (centered minus upwind)
	// tracer fluxes: the HoriFluxLimiter kernel's first phase. ---
	for _, id := range tr.sets.Edges {
		e := int(id)
		c0, c1 := int(m.EdgeCell[e][0]), int(m.EdgeCell[e][1])
		for k := 0; k < nlev; k++ {
			i := e*nlev + k
			mf := T(massFlux[i])
			q0 := T(q[c0*nlev+k]) / T(f.Mass[c0*nlev+k])
			q1 := T(q[c1*nlev+k]) / T(f.Mass[c1*nlev+k])
			var qUp T
			if mf >= 0 {
				qUp = q0
			} else {
				qUp = q1
			}
			lo := mf * qUp
			hi := mf * (q0 + q1) / 2
			tr.fluxLo[i] = lo
			tr.fluxA[i] = hi - lo
		}
	}

	// --- Provisional low-order update (monotone). ---
	for _, id := range tr.sets.Cells {
		c := int(id)
		invA := T(dt / m.CellArea[c])
		for k := 0; k < nlev; k++ {
			tr.qtd[c*nlev+k] = T(q[c*nlev+k])
		}
		for kk := m.CellOff[c]; kk < m.CellOff[c+1]; kk++ {
			ed := int(m.CellEdge[kk])
			s := T(m.CellEdgeSign[kk]) * T(m.DvEdge[ed]) * invA
			for k := 0; k < nlev; k++ {
				tr.qtd[c*nlev+k] -= s * tr.fluxLo[ed*nlev+k]
			}
		}
		// To mixing ratio against the new mass.
		for k := 0; k < nlev; k++ {
			tr.qtd[c*nlev+k] /= T(tr.newMass[c*nlev+k])
		}
	}

	// --- Zalesak bounds from the old ratios and neighbors. ---
	for _, id := range tr.sets.Cells {
		c := int(id)
		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			qc := T(q[i]) / T(f.Mass[i])
			lo, hi := qc, qc
			if tr.qtd[i] < lo {
				lo = tr.qtd[i]
			}
			if tr.qtd[i] > hi {
				hi = tr.qtd[i]
			}
			for kk := m.CellOff[c]; kk < m.CellOff[c+1]; kk++ {
				nb := int(m.CellCell[kk])
				j := nb*nlev + k
				qn := T(q[j]) / T(f.Mass[j])
				if qn < lo {
					lo = qn
				}
				if qn > hi {
					hi = qn
				}
				if tr.qtd[j] < lo {
					lo = tr.qtd[j]
				}
				if tr.qtd[j] > hi {
					hi = tr.qtd[j]
				}
			}
			tr.qmin[i], tr.qmax[i] = lo, hi
		}
	}

	// --- Limiter coefficients R+/R- per cell. ---
	for _, id := range tr.sets.Cells {
		c := int(id)
		invA := T(dt / m.CellArea[c])
		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			var pPlus, pMinus T // total anti-diffusive in/outflow
			for kk := m.CellOff[c]; kk < m.CellOff[c+1]; kk++ {
				ed := int(m.CellEdge[kk])
				a := T(m.CellEdgeSign[kk]) * T(m.DvEdge[ed]) * invA * tr.fluxA[ed*nlev+k]
				if a < 0 {
					pPlus -= a // inflow raises q
				} else {
					pMinus += a
				}
			}
			mass := T(tr.newMass[i])
			qPlus := (tr.qmax[i] - tr.qtd[i]) // available headroom
			qMinus := (tr.qtd[i] - tr.qmin[i])
			tr.rPlus[i] = limiterRatio(qPlus*mass, pPlus*mass)
			tr.rMinus[i] = limiterRatio(qMinus*mass, pMinus*mass)
		}
	}

	// --- Apply limited antidiffusive fluxes, to the commit cells only: the
	// limited flux of an edge on the cut uses identical r coefficients on
	// both owning ranks, so conservation holds across it. ---
	for _, id := range tr.sets.Commit {
		c := int(id)
		invA := T(dt / m.CellArea[c])
		for kk := m.CellOff[c]; kk < m.CellOff[c+1]; kk++ {
			ed := int(m.CellEdge[kk])
			nb := int(m.CellCell[kk])
			sgn := T(m.CellEdgeSign[kk])
			s := sgn * T(m.DvEdge[ed]) * invA
			for k := 0; k < nlev; k++ {
				i := c*nlev + k
				a := tr.fluxA[ed*nlev+k] * sgn // outflow positive for this cell
				var cLim T
				if a >= 0 { // outflow from c into nb
					cLim = minT(tr.rMinus[i], tr.rPlus[nb*nlev+k])
				} else { // inflow into c from nb
					cLim = minT(tr.rPlus[i], tr.rMinus[nb*nlev+k])
				}
				tr.qtd[i] -= s * cLim * tr.fluxA[ed*nlev+k] / T(tr.newMass[i])
			}
		}
	}

	// --- Commit: back to mass-weighted double-precision storage. ---
	for _, id := range tr.sets.Commit {
		c := int(id)
		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			v := float64(tr.qtd[i]) * tr.newMass[i]
			if v < 0 { // guard rounding
				v = 0
			}
			q[i] = v
		}
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
