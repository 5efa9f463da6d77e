package dycore

import (
	"math"

	"gristgo/internal/mesh"
	"gristgo/internal/precision"
)

// tangentialVelocityLevels applies the TRiSK tangential reconstruction to
// a multi-level edge field in working precision T. Stencil entries outer,
// three a pass while three are left, then one; level inner over
// contiguous runs. Per (edge, level) the sum still runs over the stencil
// in order: d + a + b + c is ((d + a) + b) + c.
func tangentialVelocityLevels[T precision.Real](m *mesh.Mesh, dst []T, u []float64, nlev int, ids []int32) {
	for _, e := range ids {
		d := mesh.Row(dst, e, nlev)
		clear(d)
		j, end := m.TrskOff[e], m.TrskOff[e+1]
		for ; end-j >= 3; j += 3 {
			w0, w1, w2 := T(m.TrskWeight[j]), T(m.TrskWeight[j+1]), T(m.TrskWeight[j+2])
			u0, u1, u2 := mesh.Row(u, m.TrskEdge[j], nlev), mesh.Row(u, m.TrskEdge[j+1], nlev), mesh.Row(u, m.TrskEdge[j+2], nlev)
			for k := range d {
				d[k] = d[k] + w0*T(u0[k]) + w1*T(u1[k]) + w2*T(u2[k])
			}
		}
		for ; j < end; j++ {
			w := T(m.TrskWeight[j])
			for k, uk := range mesh.Row(u, m.TrskEdge[j], nlev) {
				d[k] += w * T(uk)
			}
		}
	}
}

// tangentialWinds evaluates the TRiSK reconstruction over the given
// edges. m is read outside the closure as in every kernel: with e.s.M
// read inside it the G5 x 30 call measured 8.4 ms against 5.7.
func (e *engine[T]) tangentialWinds(ids []int32) {
	m := e.s.M
	mesh.ParallelFor(e.workers, ids, func(ids []int32) {
		tangentialVelocityLevels(m, e.vtan, e.s.U, e.s.NLev, ids)
	})
}

// implicitScratch is the per-goroutine workspace of the column solve;
// the engine's implicitPool recycles instances so the steady state stays
// allocation-free (the eight makes run once per worker, at pool misses).
type implicitScratch struct {
	p, a, dPi, diag, lower, upper, rhs, wNew []float64
}

// newImplicitScratch builds the pool constructor for nlev layers.
func newImplicitScratch(nlev int) func() any {
	ni := nlev + 1
	return func() any {
		return &implicitScratch{
			p: make([]float64, nlev), a: make([]float64, nlev),
			dPi: make([]float64, ni), diag: make([]float64, ni),
			lower: make([]float64, ni), upper: make([]float64, ni),
			rhs: make([]float64, ni), wNew: make([]float64, ni),
		}
	}
}

// implicitVertical performs the vertically-implicit acoustic adjustment
// of (w, phi): the vertical momentum and geopotential equations are
// linearized about the current state and solved as one tridiagonal system
// per column (the "vertically implicit" half of HEVI, §3.1.2). The solve
// is gravity-sensitive and therefore always runs in float64 (§3.4.2).
//
// Discretization (k = 0..K-1 layers top to bottom; interfaces i = 0..K):
//
//	w_i' = w_i + dt*g*( (p_k(i) - p_k(i-1))/dPi_i - 1 )      [interior i]
//	phi_i' = phi_i + dt*g*w_i'
//	p_k'  = p_k - a_k (w_k' - w_{k+1}') ,  a_k = Gamma p_k g dt / dphi_k
//
// with rigid boundaries w_0 = w_K = 0. Substituting p' into the momentum
// update yields a symmetric tridiagonal system in the interior w'.
func (e *engine[T]) implicitVertical(dt float64) {
	s := e.s
	nlev := s.NLev
	if nlev < 2 {
		return
	}
	ni := nlev + 1

	mesh.ParallelFor(e.workers, e.sets.tend.ids, func(ids []int32) {
		sc := e.implicitPool.Get().(*implicitScratch)
		p, a, dPi := sc.p, sc.a, sc.dPi
		diag, lower, upper, rhs, wNew := sc.diag, sc.lower, sc.upper, sc.rhs, sc.wNew
		for _, c := range ids {
			base := int(c) * nlev
			ibase := int(c) * ni

			// Layer pressures (LayerPressureFromPhi's arithmetic on the
			// dphi at hand) and linearization coefficients.
			phi, thm := mesh.Row(s.Phi, c, ni), mesh.Row(s.ThetaM, c, nlev)
			for k, dm := range mesh.Row(s.DryMass, c, nlev) {
				dphi := phi[k] - phi[k+1]
				p[k], _ = eos(dm/dphi, thm[k]/dm)
				a[k] = Gamma * p[k] * Gravity * dt / dphi
			}
			// Interface mass spacing dPi_i = pi_mid(k=i) - pi_mid(k=i-1).
			for i := 1; i < nlev; i++ {
				dPi[i] = 0.5 * (s.DryMass[base+i-1] + s.DryMass[base+i])
			}

			// Assemble the tridiagonal system for interior interfaces
			// i = 1..nlev-1. Layer above interface i is k=i-1; below is k=i.
			for i := 1; i < nlev; i++ {
				g := Gravity * dt / dPi[i]
				diag[i] = 1 + g*(a[i]+a[i-1])
				upper[i] = -g * a[i]   // couples to w_{i+1}
				lower[i] = -g * a[i-1] // couples to w_{i-1}
				rhs[i] = s.W[ibase+i] + Gravity*dt*((p[i]-p[i-1])/dPi[i]-1)
			}
			// Boundary conditions: w at top and surface fixed at 0.
			wNew[0], wNew[nlev] = 0, 0

			// Thomas algorithm on i = 1..nlev-1.
			for i := 2; i < nlev; i++ {
				m := lower[i] / diag[i-1]
				diag[i] -= m * upper[i-1]
				rhs[i] -= m * rhs[i-1]
			}
			if nlev >= 2 {
				wNew[nlev-1] = rhs[nlev-1] / diag[nlev-1]
				for i := nlev - 2; i >= 1; i-- {
					wNew[i] = (rhs[i] - upper[i]*wNew[i+1]) / diag[i]
				}
			}

			// Commit w and integrate phi.
			for i := 1; i < nlev; i++ {
				s.W[ibase+i] = wNew[i]
				s.Phi[ibase+i] += dt * Gravity * wNew[i]
			}
			// Keep the column monotone: geopotential must decrease downward.
			for i := nlev - 1; i >= 0; i-- {
				minGap := 1.0 // m^2/s^2, tiny floor
				if s.Phi[ibase+i] < s.Phi[ibase+i+1]+minGap {
					s.Phi[ibase+i] = s.Phi[ibase+i+1] + minGap
				}
			}
		}
		e.implicitPool.Put(sc)
	})
}

// HydrostaticRebalance recomputes the geopotential of every column from
// hydrostatic balance with the current mass and temperature fields,
// zeroing w. Used to initialize phi consistently after constructing an
// initial state.
func HydrostaticRebalance(s *State) {
	nlev := s.NLev
	for c := 0; c < s.M.NCells; c++ {
		ibase := c * (nlev + 1)
		s.Phi[ibase+nlev] = s.PhiSurf[c]
		pDown := PTop
		for k := 0; k < nlev; k++ {
			pDown += s.DryMass[c*nlev+k]
		}
		for k := nlev - 1; k >= 0; k-- {
			dpi := s.DryMass[c*nlev+k]
			pUp := pDown - dpi
			theta := s.ThetaM[c*nlev+k] / dpi
			pMid := 0.5 * (pUp + pDown)
			// T = theta*(p/P0)^kappa; the discrete balance
			// dphi = Rd*T*dpi/pMid makes the equation-of-state pressure
			// equal pMid exactly, the implicit solver's equilibrium
			// (see State.IsothermalRest).
			tK := theta * math.Pow(pMid/P0, Rd/Cp)
			s.Phi[ibase+k] = s.Phi[ibase+k+1] + Rd*tK*dpi/pMid
			pDown = pUp
		}
		for i := 0; i <= nlev; i++ {
			s.W[ibase+i] = 0
		}
	}
}
