// Package dycore implements the layer-averaged nonhydrostatic dynamical
// core of the model (§3.1.2 of the paper): a staggered finite-volume
// discretization of the compressible equations on the unstructured
// hexagonal C-grid, integrated with a horizontally-explicit
// vertically-implicit (HEVI) scheme. The six prognostic equations are dry
// mass, edge-normal velocity, (mass-weighted) potential temperature,
// vertical velocity, geopotential, and tracer mass (the latter handled by
// package tracer on top of the mass fluxes accumulated here).
//
// Kernels that appear in the paper's Fig. 9 CPE study keep their GRIST
// names: PrimalNormalFluxEdge, ComputeRRR, CalcCoriolisTerm,
// TendGradKEAtEdge, and the tracer-transport flux limiter.
package dycore

import (
	"math"

	"gristgo/internal/mesh"
)

// Physical constants (dry air, Earth).
const (
	Rd      = 287.04   // gas constant of dry air, J/kg/K
	Cp      = 1004.64  // heat capacity at constant pressure
	Cv      = Cp - Rd  // heat capacity at constant volume
	Gamma   = Cp / Cv  // ratio used by the acoustic linearization
	P0      = 1.0e5    // Exner reference pressure, Pa
	Gravity = 9.80616  // m/s^2
	Omega   = 7.292e-5 // Earth rotation rate, rad/s
	PTop    = 225.0    // model-top dry pressure, Pa (2.25 hPa as in §4.4)
)

// State holds the prognostic fields of the dynamical core in double
// precision (the "gold standard" storage; mixed-precision builds demote
// work arrays, not the state — §3.4.3).
//
// Layouts are column-major: cell fields index [c*NLev+k], edge fields
// [e*NLev+k], interface fields [c*(NLev+1)+i]. Level k=0 is the model
// top; interface i=0 is the top boundary, i=NLev the surface.
type State struct {
	M    *mesh.Mesh
	NLev int

	DryMass []float64 // delta-pi: dry-mass (pressure) thickness per layer, Pa
	ThetaM  []float64 // delta-pi * theta: mass-weighted potential temperature
	U       []float64 // edge-normal velocity, m/s
	W       []float64 // vertical velocity at interfaces, m/s
	Phi     []float64 // geopotential at interfaces, m^2/s^2

	PhiSurf []float64 // surface geopotential (topography), per cell
}

// NewState allocates a zero state over the mesh.
func NewState(m *mesh.Mesh, nlev int) *State {
	return &State{
		M:       m,
		NLev:    nlev,
		DryMass: make([]float64, m.NCells*nlev),
		ThetaM:  make([]float64, m.NCells*nlev),
		U:       make([]float64, m.NEdges*nlev),
		W:       make([]float64, m.NCells*(nlev+1)),
		Phi:     make([]float64, m.NCells*(nlev+1)),
		PhiSurf: make([]float64, m.NCells),
	}
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := NewState(s.M, s.NLev)
	copy(c.DryMass, s.DryMass)
	copy(c.ThetaM, s.ThetaM)
	copy(c.U, s.U)
	copy(c.W, s.W)
	copy(c.Phi, s.Phi)
	copy(c.PhiSurf, s.PhiSurf)
	return c
}

// Region visits the level-runs of a region's prognostic fields in the one
// canonical order every serialized form of a region uses (gather buffers,
// checkpoint shards, redistribution): per cell DryMass, ThetaM (NLev
// words each), W, Phi (NLev+1 each), then per edge U (NLev). Each run
// aliases the state, so visit may read or overwrite it.
func (s *State) Region(cells, edges []int32, visit func(run []float64)) {
	nlev, ni := s.NLev, s.NLev+1
	for _, c := range cells {
		b, ib := int(c)*nlev, int(c)*ni
		visit(s.DryMass[b : b+nlev])
		visit(s.ThetaM[b : b+nlev])
		visit(s.W[ib : ib+ni])
		visit(s.Phi[ib : ib+ni])
	}
	for _, e := range edges {
		b := int(e) * nlev
		visit(s.U[b : b+nlev])
	}
}

// RegionLen returns how many words Region visits for the given counts.
func RegionLen(nlev, ncells, nedges int) int {
	return ncells*(4*nlev+2) + nedges*nlev
}

// SurfacePressure returns the dry surface pressure per cell:
// ptop + sum_k delta-pi.
func (s *State) SurfacePressure() []float64 {
	ps := make([]float64, s.M.NCells)
	for c := 0; c < s.M.NCells; c++ {
		sum := PTop
		for k := 0; k < s.NLev; k++ {
			sum += s.DryMass[c*s.NLev+k]
		}
		ps[c] = sum
	}
	return ps
}

// Theta returns the potential temperature of (cell, level).
func (s *State) Theta(c, k int) float64 {
	return s.ThetaM[c*s.NLev+k] / s.DryMass[c*s.NLev+k]
}

// eos is the one spelling of the equation of state. With
// x = Rd*rho*theta/P0 the full pressure is p = P0 * x^Gamma and the Exner
// function (p/P0)^(Rd/Cp) = x^(Rd/Cv); since Gamma = Cp/Cv = 1 + Rd/Cv,
// x^Gamma = x * x^(Rd/Cv), so one log and one exp give both, and
// p = rho*Rd*theta*exner is the ideal-gas law. Always float64: both
// outputs feed precision-sensitive terms (§3.4.2).
//
//grist:hotpath
func eos(rho, theta float64) (p, exner float64) {
	x := Rd * rho * theta / P0
	exner = tabExp(Rd / Cv * tabLog(x))
	return P0 * x * exner, exner
}

// LayerPressureFromPhi diagnoses the full (nonhydrostatic) pressure of
// layer k in column c from the equation of state, with the density
// obtained from the geopotential thickness:
// rho = delta-pi / (phi_above - phi_below).
func (s *State) LayerPressureFromPhi(c, k int) float64 {
	dphi := s.Phi[c*(s.NLev+1)+k] - s.Phi[c*(s.NLev+1)+k+1]
	p, _ := eos(s.DryMass[c*s.NLev+k]/dphi, s.Theta(c, k))
	return p
}

// IsothermalRest initializes a hydrostatically balanced isothermal
// atmosphere at rest with the given temperature. This is a steady state
// of the continuous equations; a correct dycore holds it to rounding.
func (s *State) IsothermalRest(tempK float64) {
	nlev := s.NLev
	// Equal dry-mass (sigma) layers from PTop to psurf.
	const psurf = 1.0e5
	dpi := (psurf - PTop) / float64(nlev)
	for c := 0; c < s.M.NCells; c++ {
		s.PhiSurf[c] = 0
		// Interface pressures.
		s.Phi[c*(nlev+1)+nlev] = 0 // surface geopotential
		for k := nlev - 1; k >= 0; k-- {
			pUp := PTop + float64(k)*dpi     // interface above layer k
			pDown := PTop + float64(k+1)*dpi // interface below layer k
			s.DryMass[c*nlev+k] = dpi
			pMid := 0.5 * (pUp + pDown)
			// Discrete hydrostatic balance: dphi = Rd*T*dpi/pMid makes
			// the equation-of-state pressure equal pMid exactly (since
			// (1-kappa)*gamma = 1), the equilibrium of the implicit
			// vertical solver.
			s.Phi[c*(nlev+1)+k] = s.Phi[c*(nlev+1)+k+1] + Rd*tempK*dpi/pMid
			theta := tempK * math.Pow(P0/pMid, Rd/Cp)
			s.ThetaM[c*nlev+k] = dpi * theta
		}
	}
}

// AddThermalBubble perturbs potential temperature with a Gaussian bubble
// centered at (lat0, lon0), with horizontal half-width in radians and
// amplitude in kelvin applied in the lower half of the column. Used to
// trigger convection-like motion in tests and examples.
func (s *State) AddThermalBubble(lat0, lon0, halfWidth, amplitude float64) {
	center := mesh.FromLatLon(lat0, lon0)
	for c := 0; c < s.M.NCells; c++ {
		d := mesh.ArcLength(s.M.CellPos[c], center)
		w := math.Exp(-(d * d) / (halfWidth * halfWidth))
		if w < 1e-8 {
			continue
		}
		for k := s.NLev / 2; k < s.NLev; k++ {
			dpi := s.DryMass[c*s.NLev+k]
			theta := s.ThetaM[c*s.NLev+k] / dpi
			vert := math.Sin(math.Pi * float64(k-s.NLev/2) / float64(s.NLev/2))
			s.ThetaM[c*s.NLev+k] = dpi * (theta + amplitude*w*vert)
		}
	}
}

// AddSolidBodyWind sets the edge-normal velocities of a zonal solid-body
// rotation with equatorial speed u0 (m/s).
func (s *State) AddSolidBodyWind(u0 float64) {
	m := s.M
	for e := 0; e < m.NEdges; e++ {
		lat, _ := m.EdgePos[e].LatLon()
		east, _ := mesh.TangentBasis(m.EdgePos[e])
		un := east.Scale(u0 * math.Cos(lat)).Dot(m.EdgeNormal[e])
		for k := 0; k < s.NLev; k++ {
			s.U[e*s.NLev+k] += un
		}
	}
}

// AddVortex superposes an idealized warm-core cyclonic vortex (a
// Rankine-like tangential wind with Gaussian decay) centered at
// (lat0, lon0). vmax is the peak tangential wind (m/s), rmax the radius
// of maximum wind in radians of arc. Used for the Typhoon Doksuri
// experiment (Fig. 7).
func (s *State) AddVortex(lat0, lon0, vmax, rmax float64) {
	m := s.M
	center := mesh.FromLatLon(lat0, lon0)
	for e := 0; e < m.NEdges; e++ {
		p := m.EdgePos[e]
		r := mesh.ArcLength(p, center)
		if r < 1e-12 || r > 12*rmax {
			continue
		}
		// Tangential speed profile: v = vmax * (r/rmax) * exp(1-r/rmax).
		x := r / rmax
		v := vmax * x * math.Exp(1-x)
		// Cyclonic (counterclockwise in NH): direction = up x rhat.
		rhat := p.Sub(center.Scale(p.Dot(center))).Normalize()
		dir := mesh.LocalVertical(p).Cross(rhat)
		un := dir.Scale(v).Dot(m.EdgeNormal[e])
		// Strongest at low levels, decaying upward.
		for k := 0; k < s.NLev; k++ {
			depth := float64(k+1) / float64(s.NLev)
			s.U[e*s.NLev+k] += un * depth
		}
	}
	// Warm core: raises theta near the center aloft.
	for c := 0; c < m.NCells; c++ {
		r := mesh.ArcLength(m.CellPos[c], center)
		w := math.Exp(-(r * r) / (2 * rmax * rmax))
		if w < 1e-8 {
			continue
		}
		for k := s.NLev / 4; k < 3*s.NLev/4; k++ {
			dpi := s.DryMass[c*s.NLev+k]
			theta := s.ThetaM[c*s.NLev+k] / dpi
			s.ThetaM[c*s.NLev+k] = dpi * (theta + 3.0*w)
		}
	}
}

// GlobalDryMass returns the area-integrated dry mass (a conserved
// invariant of the continuity equation).
func (s *State) GlobalDryMass() float64 {
	var total float64
	for c := 0; c < s.M.NCells; c++ {
		var col float64
		for k := 0; k < s.NLev; k++ {
			col += s.DryMass[c*s.NLev+k]
		}
		total += col * s.M.CellArea[c]
	}
	return total / Gravity
}
