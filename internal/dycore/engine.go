package dycore

import (
	"math"
	"sync"

	"gristgo/internal/mesh"
	"gristgo/internal/precision"
	"gristgo/internal/telemetry"
)

// Engine integrates the nonhydrostatic equations. Two instantiations
// exist behind this interface: the double-precision reference and the
// mixed-precision build, which demotes the precision-insensitive
// advective work arrays to float32 while keeping pressure-gradient and
// gravity terms — and the accumulated tracer mass flux — in float64
// (§3.4.2).
type Engine interface {
	// Step advances the state by one dynamics timestep (HEVI: 3-stage
	// explicit horizontal Runge-Kutta + implicit vertical solve).
	Step(dt float64)
	// State returns the prognostic state (always float64 storage).
	State() *State
	// Mode reports the precision configuration.
	Mode() precision.Mode
	// MassFluxAccum returns the edge mass flux accumulated in double
	// precision since the last reset, for the tracer transport
	// sub-cycling (the one term of the tracer equation that must stay
	// FP64 — §3.4.2). Units: Pa m/s, summed over accumulated steps.
	MassFluxAccum() []float64
	// AccumSteps returns how many dynamics steps are in the accumulator.
	AccumSteps() int
	// ResetMassFluxAccum zeroes the accumulator.
	ResetMassFluxAccum()
	// VorticityAtLevel diagnoses relative vorticity at dual vertices.
	VorticityAtLevel(k int) []float64
	// ApplyHeating adds a potential-temperature tendency from a heating
	// rate Q1 (K/s of temperature), cell-major [c*NLev+k], over dt.
	ApplyHeating(q1 []float64, dt float64)
	// SetOwned restricts computation to the given entity sets for
	// distributed runs: exactly those entities, so empty sets compute
	// nothing. nil restores the full mesh, which is the same thing with
	// identity lists and nothing to exchange. The Start/Finish hooks run
	// around every internal stage boundary so the driver can refresh
	// halos, overlapping interior compute with the in-flight exchange.
	SetOwned(o *OwnedSets)
	// SetHostParallelism chunks every entity loop — the whole mesh or one
	// rank's share of it — across n host workers (shared-memory OpenMP
	// analog; 0/1 = serial, negative = all CPUs).
	SetHostParallelism(n int)
	// SetTelemetry attaches a flight recorder: every Step emits a
	// dyn_step span enclosing the stage phases (halo_start, interior,
	// halo_finish, boundary, implicit_vertical), attributed to rank. A
	// nil recorder detaches.
	SetTelemetry(rec *telemetry.Recorder, rank int32)
	// SetTelemetryStep stamps subsequent spans with an explicit model
	// step (> 0). Distributed runners call it before each Step so every
	// rank's spans carry its own step counter — the recorder's shared
	// SetStep cannot attribute ranks that advance independently. Zero
	// restores the shared-step behavior of the serial drivers.
	SetTelemetryStep(step int64)
}

// OwnedSets describes one rank's share of the mesh for distributed runs:
// TendCells receive prognostic updates (owned cells); DiagCells
// additionally include the one-ring halo, where diagnostic quantities
// (density, pressure, kinetic energy) must be valid; FluxEdges are the
// edges of owned cells, where mass fluxes are formed; UEdges are the
// owned edges whose normal velocity this rank advances.
//
// Start and Finish bracket the halo refresh at each stage boundary:
// Start must snapshot the just-updated owned values and post the
// exchange (it may equally perform the whole blocking round), Finish
// completes a round posted by Start (nil when Start blocks). The engine
// runs Start → interior compute → Finish → boundary compute, with the
// interior/boundary partition derived from the entity sets and the mesh
// one-ring, so an overlap-capable exchange layer hides the round-trip
// behind the interior work.
type OwnedSets struct {
	TendCells []int32
	DiagCells []int32
	FluxEdges []int32
	UEdges    []int32
	Start     func()
	Finish    func()
}

// New creates an Engine over the mesh with nlev layers in the given
// precision mode.
func New(m *mesh.Mesh, nlev int, mode precision.Mode) Engine {
	s := NewState(m, nlev)
	return NewFromState(s, mode)
}

// NewFromState wraps an existing state in an Engine.
func NewFromState(s *State, mode precision.Mode) Engine {
	if mode == precision.Mixed {
		return newEngine[float32](s, mode)
	}
	return newEngine[float64](s, mode)
}

// engine is the generic integrator; T is the working precision of the
// insensitive terms.
type engine[T precision.Real] struct {
	s    *State
	mode precision.Mode

	// sets is the iteration space of every loop: the whole mesh until
	// SetOwned narrows it to one rank's share. owned is kept for its
	// Start/Finish hooks (nil: full mesh).
	owned *OwnedSets
	sets  splitSets

	// Host worker count for shared-memory parallel loops (<=1: serial).
	workers int

	// Optional flight recorder for Step phase spans (nil: disabled).
	// telStep > 0 stamps spans with an explicit per-rank step.
	rec     *telemetry.Recorder
	telRank int32
	telStep int64

	// Work arrays in switchable precision T (advective terms, kinetic
	// energy, vorticity, tangential winds — the insensitive terms).
	thetaEdge []T // reconstructed theta at edges
	flux      []T // delta-pi * u at edges
	ke        []T // kinetic energy at cells
	zeta      []T // relative vorticity at dual vertices
	vtan      []T // TRiSK tangential velocity at edges
	rrr       []T // reciprocal density (specific volume) per cell/level

	// Sensitive per-cell diagnostics kept in float64: the two inputs of
	// the pressure-gradient force and the velocity divergence, each
	// computed once per (cell, level) by the kernel that already walks
	// the cell rather than once per reading edge.
	phm []float64 // mid-layer geopotential minus the reference profile at pi_mid
	pnh []float64 // nonhydrostatic pressure excess p - pi_mid
	div []float64 // divergence of the normal winds (diffusion term)

	// Tendencies (always float64 accumulation).
	dMass  []float64
	dTheta []float64
	dU     []float64

	// Double-precision accumulated mass flux for tracer transport.
	massFluxAcc []float64
	accumSteps  int

	// RK3 stage-zero state (reused across steps to avoid per-step
	// allocation).
	saveMass, saveTheta, saveU []float64

	// implicitPool recycles the column-solve scratch of implicitVertical
	// across goroutines and steps (constructor set in newEngine).
	implicitPool sync.Pool

	// nu is the del^2 background diffusion coefficient, scaled with mesh
	// spacing at construction.
	nu float64

	// fEdge is the Coriolis parameter 2*Omega*sin(lat) at every edge.
	fEdge []float64
}

func newEngine[T precision.Real](s *State, mode precision.Mode) *engine[T] {
	m := s.M
	nlev := s.NLev
	e := &engine[T]{
		s:    s,
		mode: mode,
		sets: fullSets(m),

		thetaEdge: make([]T, m.NEdges*nlev),
		flux:      make([]T, m.NEdges*nlev),
		ke:        make([]T, m.NCells*nlev),
		zeta:      make([]T, m.NVerts*nlev),
		vtan:      make([]T, m.NEdges*nlev),
		rrr:       make([]T, m.NCells*nlev),

		phm: make([]float64, m.NCells*nlev),
		pnh: make([]float64, m.NCells*nlev),
		div: make([]float64, m.NCells*nlev),

		dMass:  make([]float64, m.NCells*nlev),
		dTheta: make([]float64, m.NCells*nlev),
		dU:     make([]float64, m.NEdges*nlev),

		massFluxAcc: make([]float64, m.NEdges*nlev),

		saveMass:  make([]float64, m.NCells*nlev),
		saveTheta: make([]float64, m.NCells*nlev),
		saveU:     make([]float64, m.NEdges*nlev),
	}
	e.implicitPool.New = newImplicitScratch(nlev)
	// Scale-selective damping: nu ~ dx^2 / tau with tau ~ 2h.
	meanDx := meanEdgeLength(m)
	e.nu = meanDx * meanDx / 7200.0
	e.fEdge = make([]float64, m.NEdges)
	for ed, lat := range m.EdgeLat {
		e.fEdge[ed] = 2 * Omega * math.Sin(lat)
	}
	return e
}

func meanEdgeLength(m *mesh.Mesh) float64 {
	var s float64
	for e := 0; e < m.NEdges; e++ {
		s += m.DcEdge[e]
	}
	return s / float64(m.NEdges)
}

func (e *engine[T]) State() *State            { return e.s }
func (e *engine[T]) Mode() precision.Mode     { return e.mode }
func (e *engine[T]) MassFluxAccum() []float64 { return e.massFluxAcc }
func (e *engine[T]) AccumSteps() int          { return e.accumSteps }

func (e *engine[T]) ResetMassFluxAccum() {
	for i := range e.massFluxAcc {
		e.massFluxAcc[i] = 0
	}
	e.accumSteps = 0
}

func (e *engine[T]) SetTelemetry(rec *telemetry.Recorder, rank int32) {
	e.rec = rec
	e.telRank = rank
}

func (e *engine[T]) SetTelemetryStep(step int64) { e.telStep = step }

// span opens a phase span: with an explicit per-rank step when one was
// stamped (distributed runs), else on the recorder's shared step.
func (e *engine[T]) span(name string) telemetry.Span {
	if e.telStep > 0 {
		return e.rec.BeginAt(name, e.telRank, e.telStep)
	}
	return e.rec.Begin(name, e.telRank)
}

func (e *engine[T]) SetOwned(o *OwnedSets) {
	e.owned = o
	if o == nil {
		e.sets = fullSets(e.s.M)
	} else {
		e.sets = buildSplit(e.s.M, o)
	}
}

func (e *engine[T]) hookStart() {
	if e.owned != nil && e.owned.Start != nil {
		e.owned.Start()
	}
}

func (e *engine[T]) hookFinish() {
	if e.owned != nil && e.owned.Finish != nil {
		e.owned.Finish()
	}
}

// Step advances one HEVI timestep: Wicker-Skamarock RK3 for the
// horizontal explicit terms, then the vertically-implicit acoustic
// adjustment of (w, phi).
//
// Stage tendencies are evaluated right after the previous stage's state
// update. With a split exchange layer the interior share runs while the
// halo refresh is in flight (Start → interior → Finish → boundary) —
// bit-identical to the blocking order, because Start seals its outbound
// payload before the overlapped compute begins. The vertical solve is
// column-local over owned cells and the mass-flux accumulation reads
// only work arrays, so both also overlap with an in-flight exchange.
func (e *engine[T]) Step(dt float64) {
	stepSpan := e.span("dyn_step")
	s := e.s
	nlev := s.NLev
	copy(e.saveMass, s.DryMass)
	copy(e.saveTheta, s.ThetaM)
	copy(e.saveU, s.U)

	fracs := [3]float64{dt / 3, dt / 2, dt}
	e.computeTendencies(regionAll)
	for si := 0; si < 3; si++ {
		frac := fracs[si]
		mesh.ParallelFor(e.workers, e.sets.tend.ids, func(ids []int32) {
			for _, c := range ids {
				dm, th := mesh.Row(s.DryMass, c, nlev), mesh.Row(s.ThetaM, c, nlev)
				dm0, th0 := mesh.Row(e.saveMass, c, nlev), mesh.Row(e.saveTheta, c, nlev)
				dmT, thT := mesh.Row(e.dMass, c, nlev), mesh.Row(e.dTheta, c, nlev)
				for k := range dm {
					dm[k] = dm0[k] + frac*dmT[k]
					th[k] = th0[k] + frac*thT[k]
				}
			}
		})
		mesh.ParallelFor(e.workers, e.sets.u.ids, func(ids []int32) {
			for _, ed := range ids {
				u, u0, uT := mesh.Row(s.U, ed, nlev), mesh.Row(e.saveU, ed, nlev), mesh.Row(e.dU, ed, nlev)
				for k := range u {
					u[k] = u0[k] + frac*uT[k]
				}
			}
		})
		if si < 2 {
			sp := e.span("halo_start")
			e.hookStart()
			sp.End()
			sp = e.span("interior")
			e.computeTendencies(regionInterior)
			sp.End()
			sp = e.span("halo_finish")
			e.hookFinish()
			sp.End()
			sp = e.span("boundary")
			e.computeTendencies(regionBoundary)
			sp.End()
		}
	}

	sp := e.span("halo_start")
	e.hookStart()
	sp.End()
	// Accumulate the final-stage mass flux in double precision for the
	// tracer sub-cycling (§3.4.2: delta-pi*V must stay FP64).
	mesh.ParallelFor(e.workers, e.sets.flux.ids, func(ids []int32) {
		for _, ed := range ids {
			acc := mesh.Row(e.massFluxAcc, ed, nlev)
			for k, f := range mesh.Row(e.flux, ed, nlev) {
				acc[k] += float64(f)
			}
		}
	})
	e.accumSteps++

	sp = e.span("implicit_vertical")
	e.implicitVertical(dt)
	sp.End()
	sp = e.span("halo_finish")
	e.hookFinish()
	sp.End()
	// Post-implicit refresh: ship the implicitly updated (w, phi).
	e.hookStart()
	e.hookFinish()
	stepSpan.End()
}

// region selects which share of the stage loops to run: everything, the
// exchange-independent interior, or the exchange-dependent boundary.
type region uint8

const (
	regionAll region = iota
	regionInterior
	regionBoundary
)

// computeTendencies evaluates the explicit horizontal tendencies of
// delta-pi, Theta and u into dMass, dTheta, dU over the given region.
func (e *engine[T]) computeTendencies(reg region) {
	sp := &e.sets
	diag := sp.diag.of(reg)
	e.computeRRR(diag)
	e.primalNormalFluxEdge(sp.flux.of(reg))
	e.computeKineticEnergy(diag)
	e.computeVorticity(sp.vert.of(reg))
	e.tangentialWinds(sp.vtan.of(reg))
	e.continuityAndThermo(sp.tend.of(reg))
	e.momentum(sp.u.of(reg))
}

// computeRRR diagnoses the reciprocal density (specific volume)
// rrr = dphi/dpi per layer and the two per-cell inputs of the
// pressure-gradient force in momentum: the mid-layer geopotential
// relative to the hydrostatic reference profile at the dry mid-layer
// pressure, and the excess of the equation-of-state pressure over that
// dry pressure. This is the paper's compute_rrr kernel: it touches many
// arrays and carries the transcendental and division work, and its rrr
// output is precision-insensitive while the pressure-gradient inputs
// stay FP64.
func (e *engine[T]) computeRRR(ids []int32) {
	s := e.s
	nlev := s.NLev
	mesh.ParallelFor(e.workers, ids, func(ids []int32) {
		for _, c := range ids {
			phi := mesh.Row(s.Phi, c, nlev+1)
			thm := mesh.Row(s.ThetaM, c, nlev)
			rrr, phm, pnh := mesh.Row(e.rrr, c, nlev), mesh.Row(e.phm, c, nlev), mesh.Row(e.pnh, c, nlev)
			pIface := PTop
			for k, dpi := range mesh.Row(s.DryMass, c, nlev) {
				dphi := phi[k] - phi[k+1]
				rrr[k] = T(dphi / dpi)
				p, _ := eos(dpi/dphi, thm[k]/dpi)
				piMid := pIface + 0.5*dpi
				phm[k] = 0.5*(phi[k]+phi[k+1]) - refPhi(piMid)
				pnh[k] = p - piMid
				pIface += dpi
			}
		}
	})
}

// primalNormalFluxEdge reconstructs delta-pi and theta at edges and forms
// the horizontal mass flux delta-pi*u. The reconstruction blends a
// positivity-friendly harmonic mean with an upwind value weighted by the
// local Courant ratio — the division-heavy structure that makes this
// kernel profit from single precision on CPEs (Fig. 9).
func (e *engine[T]) primalNormalFluxEdge(ids []int32) {
	s := e.s
	m := s.M
	nlev := s.NLev
	mesh.ParallelFor(e.workers, ids, func(ids []int32) {
		for _, ed := range ids {
			c0, c1 := m.EdgeCell[ed][0], m.EdgeCell[ed][1]
			dm0, dm1 := mesh.Row(s.DryMass, c0, nlev), mesh.Row(s.DryMass, c1, nlev)
			thm0, thm1 := mesh.Row(s.ThetaM, c0, nlev), mesh.Row(s.ThetaM, c1, nlev)
			te, fl := mesh.Row(e.thetaEdge, ed, nlev), mesh.Row(e.flux, ed, nlev)
			uStar := T(10.0) // blending velocity scale, m/s
			for k, u64 := range mesh.Row(s.U, ed, nlev) {
				m0, m1 := T(dm0[k]), T(dm1[k])
				t0 := T(thm0[k]) / m0
				t1 := T(thm1[k]) / m1
				u := T(u64)
				au := u
				if au < 0 {
					au = -au
				}
				// Upwind weight rises with |u|.
				wUp := au / (au + uStar)
				// Harmonic mean (centered, positivity-friendly).
				hm := 2 * m0 * m1 / (m0 + m1)
				var up, tup T
				if u >= 0 {
					up, tup = m0, t0
				} else {
					up, tup = m1, t1
				}
				me := (1-wUp)*hm + wUp*up
				te[k] = (1-wUp)*(0.5*(t0+t1)) + wUp*tup
				fl[k] = me * u
			}
		}
	})
}

// computeKineticEnergy evaluates, in one walk of each cell's edges, the
// cell kinetic energy from the edge-normal winds (MPAS/TRiSK form):
// KE_c = (1/A_c) sum_e (Dv*Dc/4) u_e^2, in working precision, and the
// velocity divergence div_c = (1/A_c) sum_e sign_e u_e Dv_e that the
// diffusion term differences, in float64. Both are valid over the same
// cells: they read the same winds.
func (e *engine[T]) computeKineticEnergy(ids []int32) {
	s := e.s
	m := s.M
	nlev := s.NLev
	mesh.ParallelFor(e.workers, ids, func(ids []int32) {
		for _, c := range ids {
			inv := T(1.0 / m.CellArea[c])
			ke, div := mesh.Row(e.ke, c, nlev), mesh.Row(e.div, c, nlev)
			clear(ke)
			clear(div)
			// Three edges a pass while three are left, then one: each
			// (cell, level) still adds its edges in CellEdge order. The
			// divergence weight folds the sign into Dv: sign*u*Dv and
			// u*(sign*Dv) round the same magnitude, since the sign is ±1.
			kk, end := m.CellOff[c], m.CellOff[c+1]
			for ; end-kk >= 3; kk += 3 {
				e0, e1, e2 := m.CellEdge[kk], m.CellEdge[kk+1], m.CellEdge[kk+2]
				w0 := T(0.25 * m.DvEdge[e0] * m.DcEdge[e0])
				w1 := T(0.25 * m.DvEdge[e1] * m.DcEdge[e1])
				w2 := T(0.25 * m.DvEdge[e2] * m.DcEdge[e2])
				d0 := float64(m.CellEdgeSign[kk]) * m.DvEdge[e0]
				d1 := float64(m.CellEdgeSign[kk+1]) * m.DvEdge[e1]
				d2 := float64(m.CellEdgeSign[kk+2]) * m.DvEdge[e2]
				u0, u1, u2 := mesh.Row(s.U, e0, nlev), mesh.Row(s.U, e1, nlev), mesh.Row(s.U, e2, nlev)
				for k := range ke {
					a0, a1, a2 := T(u0[k]), T(u1[k]), T(u2[k])
					ke[k] = ke[k] + w0*a0*a0*inv + w1*a1*a1*inv + w2*a2*a2*inv
					div[k] = div[k] + u0[k]*d0 + u1[k]*d1 + u2[k]*d2
				}
			}
			for ; kk < end; kk++ {
				ed := m.CellEdge[kk]
				w, d := T(0.25*m.DvEdge[ed]*m.DcEdge[ed]), float64(m.CellEdgeSign[kk])*m.DvEdge[ed]
				for k, u64 := range mesh.Row(s.U, ed, nlev) {
					u := T(u64)
					ke[k] += w * u * u * inv
					div[k] += u64 * d
				}
			}
			for k := range div {
				div[k] /= m.CellArea[c]
			}
		}
	})
}

// computeVorticity evaluates relative vorticity at dual vertices.
func (e *engine[T]) computeVorticity(ids []int32) {
	s := e.s
	m := s.M
	nlev := s.NLev
	mesh.ParallelFor(e.workers, ids, func(ids []int32) {
		for _, v := range ids {
			inv := T(1.0 / m.VertArea[v])
			ve, vs := m.VertEdge[v], m.VertEdgeSign[v]
			// sign*u*Dc == u*(sign*Dc) bit for bit: the sign is ±1.
			w0 := T(vs[0]) * T(m.DcEdge[ve[0]])
			w1 := T(vs[1]) * T(m.DcEdge[ve[1]])
			w2 := T(vs[2]) * T(m.DcEdge[ve[2]])
			u0, u1, u2 := mesh.Row(s.U, ve[0], nlev), mesh.Row(s.U, ve[1], nlev), mesh.Row(s.U, ve[2], nlev)
			z := mesh.Row(e.zeta, v, nlev)
			for k := range z {
				// The sum starts from zero, as a zeroed accumulator does:
				// 0 + x turns a -0 term into +0.
				z[k] = (0 + w0*T(u0[k]) + w1*T(u1[k]) + w2*T(u2[k])) * inv
			}
		}
	})
}

// continuityAndThermo forms the divergence tendencies of dry mass and
// mass-weighted potential temperature from the edge fluxes.
func (e *engine[T]) continuityAndThermo(ids []int32) {
	s := e.s
	m := s.M
	nlev := s.NLev
	mesh.ParallelFor(e.workers, ids, func(ids []int32) {
		for _, c := range ids {
			inv := 1.0 / m.CellArea[c]
			dm, dth := mesh.Row(e.dMass, c, nlev), mesh.Row(e.dTheta, c, nlev)
			clear(dm)
			clear(dth)
			// Three edges a pass, then one, in CellEdge order.
			kk, end := m.CellOff[c], m.CellOff[c+1]
			for ; end-kk >= 3; kk += 3 {
				e0, e1, e2 := m.CellEdge[kk], m.CellEdge[kk+1], m.CellEdge[kk+2]
				s0 := float64(m.CellEdgeSign[kk]) * m.DvEdge[e0] * inv
				s1 := float64(m.CellEdgeSign[kk+1]) * m.DvEdge[e1] * inv
				s2 := float64(m.CellEdgeSign[kk+2]) * m.DvEdge[e2] * inv
				f0, f1, f2 := mesh.Row(e.flux, e0, nlev), mesh.Row(e.flux, e1, nlev), mesh.Row(e.flux, e2, nlev)
				t0, t1, t2 := mesh.Row(e.thetaEdge, e0, nlev), mesh.Row(e.thetaEdge, e1, nlev), mesh.Row(e.thetaEdge, e2, nlev)
				for k := range dm {
					a0, a1, a2 := s0*float64(f0[k]), s1*float64(f1[k]), s2*float64(f2[k])
					dm[k] = dm[k] - a0 - a1 - a2
					dth[k] = dth[k] - a0*float64(t0[k]) - a1*float64(t1[k]) - a2*float64(t2[k])
				}
			}
			for ; kk < end; kk++ {
				ed := m.CellEdge[kk]
				sign := float64(m.CellEdgeSign[kk]) * m.DvEdge[ed] * inv
				te := mesh.Row(e.thetaEdge, ed, nlev)
				for k, f := range mesh.Row(e.flux, ed, nlev) {
					a := sign * float64(f)
					dm[k] -= a
					dth[k] -= a * float64(te[k])
				}
			}
		}
	})
}

// momentum assembles the edge-normal velocity tendency:
// Coriolis + vorticity flux (insensitive, T), kinetic-energy gradient
// (insensitive, T), pressure-gradient force (sensitive, float64), and
// scale-selective diffusion.
func (e *engine[T]) momentum(ids []int32) {
	s := e.s
	m := s.M
	nlev := s.NLev
	nu := e.nu

	mesh.ParallelFor(e.workers, ids, func(ids []int32) {
		for _, ed := range ids {
			c0, c1 := m.EdgeCell[ed][0], m.EdgeCell[ed][1]
			v0, v1 := m.EdgeVert[ed][0], m.EdgeVert[ed][1]
			invDc := 1.0 / m.DcEdge[ed]
			invDv := 1.0 / m.DvEdge[ed]
			f := e.fEdge[ed]
			z0, z1 := mesh.Row(e.zeta, v0, nlev), mesh.Row(e.zeta, v1, nlev)
			ke0, ke1 := mesh.Row(e.ke, c0, nlev), mesh.Row(e.ke, c1, nlev)
			rrr0, rrr1 := mesh.Row(e.rrr, c0, nlev), mesh.Row(e.rrr, c1, nlev)
			phm0, phm1 := mesh.Row(e.phm, c0, nlev), mesh.Row(e.phm, c1, nlev)
			pnh0, pnh1 := mesh.Row(e.pnh, c0, nlev), mesh.Row(e.pnh, c1, nlev)
			div0, div1 := mesh.Row(e.div, c0, nlev), mesh.Row(e.div, c1, nlev)
			vt, u := mesh.Row(e.vtan, ed, nlev), mesh.Row(s.U, ed, nlev)
			du := mesh.Row(e.dU, ed, nlev)
			for k := range du {
				// CalcCoriolisTerm: (f + zeta_e) * v_tangential.
				zetaE := 0.5 * (float64(z0[k]) + float64(z1[k]))
				cor := (f + zetaE) * float64(vt[k])

				// TendGradKEAtEdge (Fig. 4 of the paper).
				gradKE := (float64(ke1[k]) - float64(ke0[k])) * invDc

				// Pressure-gradient force, FP64 (precision-sensitive):
				// -grad(phi_mid - phi_ref(pi)) - rrr * grad(p - pi), from
				// the per-cell phm and pnh of computeRRR. Subtracting the
				// hydrostatic reference profile phi_ref removes the
				// two-large-terms cancellation error of terrain-following
				// coordinates over steep orography (the cells of one level
				// sit at different dry pressures there).
				rrrE := 0.5 * (float64(rrr0[k]) + float64(rrr1[k]))
				pgf := (phm1[k] - phm0[k] + rrrE*(pnh1[k]-pnh0[k])) * invDc

				// Scale-selective diffusion (insensitive): the del^2
				// background.
				lap := nu * ((div1[k]-div0[k])*invDc - (float64(z1[k])-float64(z0[k]))*invDv)

				// Model-top sponge: Rayleigh damping of the winds in the
				// top layers absorbs upward-propagating waves instead of
				// reflecting them off the rigid lid.
				sponge := spongeRate(k, nlev) * u[k]

				du[k] = cor - gradKE - pgf + lap - sponge
			}
		}
	})
}

// spongeRate returns the Rayleigh damping rate (1/s) of the model-top
// sponge layer: zero below the top two layers, ramping to 1/(10 min) at
// the uppermost layer.
func spongeRate(k, nlev int) float64 {
	depth := 2
	if nlev < 6 {
		depth = 1
	}
	if k >= depth {
		return 0
	}
	frac := float64(depth-k) / float64(depth)
	return frac / 600.0
}

// refPhi is the hydrostatic reference geopotential of an isothermal
// 288 K atmosphere at dry pressure pi, used to precondition the
// pressure-gradient force over terrain.
func refPhi(pi float64) float64 {
	return Rd * 288.0 * tabLog(P0/pi)
}

// VorticityAtLevel diagnoses relative vorticity (float64) at dual
// vertices for level k — one of the two mixed-precision observation
// points of §3.4.1.
func (e *engine[T]) VorticityAtLevel(k int) []float64 {
	s := e.s
	m := s.M
	nlev := s.NLev
	out := make([]float64, m.NVerts)
	for v := 0; v < m.NVerts; v++ {
		var acc float64
		for j := 0; j < 3; j++ {
			ed := m.VertEdge[v][j]
			acc += float64(m.VertEdgeSign[v][j]) * s.U[int(ed)*nlev+k] * m.DcEdge[ed]
		}
		out[v] = acc / m.VertArea[v]
	}
	return out
}

// ApplyHeating converts a temperature heating rate Q1 (K/s) into a
// potential-temperature tendency and integrates it over dt, dividing by
// the Exner function of the current state.
func (e *engine[T]) ApplyHeating(q1 []float64, dt float64) {
	s := e.s
	nlev := s.NLev
	mesh.ParallelFor(e.workers, e.sets.tend.ids, func(ids []int32) {
		for _, c := range ids {
			for k := 0; k < nlev; k++ {
				i := int(c)*nlev + k
				dphi := s.Phi[int(c)*(nlev+1)+k] - s.Phi[int(c)*(nlev+1)+k+1]
				_, exner := eos(s.DryMass[i]/dphi, s.ThetaM[i]/s.DryMass[i])
				s.ThetaM[i] += dt * s.DryMass[i] * q1[i] / exner
			}
		}
	})
}
