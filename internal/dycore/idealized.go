package dycore

import (
	"math"

	"gristgo/internal/mesh"
)

// This file provides the idealized initial states of the paper's §3.4.2
// mixed-precision test hierarchy: "idealized tropical cyclone, supercell,
// baroclinic waves" — each a standard dynamical-core test case reduced to
// the ingredients that exercise the corresponding terms of the solver.

// IdealizedCase names one member of the §3.4.2 hierarchy.
type IdealizedCase int

const (
	// CaseTropicalCyclone is a warm-core vortex on an f-plane-like
	// background (exercises the rotational terms and vortex dynamics).
	CaseTropicalCyclone IdealizedCase = iota
	// CaseSupercell is a strong low-level thermal in shear (exercises
	// the nonhydrostatic vertical solver and buoyant updrafts).
	CaseSupercell
	// CaseBaroclinicWave is a mid-latitude jet with a small upstream
	// perturbation that grows baroclinically (exercises the pressure
	// gradient and thermal-wind balance).
	CaseBaroclinicWave
)

var idealizedNames = map[IdealizedCase]string{
	CaseTropicalCyclone: "tropical_cyclone",
	CaseSupercell:       "supercell",
	CaseBaroclinicWave:  "baroclinic_wave",
}

func (c IdealizedCase) String() string { return idealizedNames[c] }

// AllIdealizedCases lists the §3.4.2 hierarchy.
func AllIdealizedCases() []IdealizedCase {
	return []IdealizedCase{CaseTropicalCyclone, CaseSupercell, CaseBaroclinicWave}
}

// InitIdealized fills the state with the chosen idealized case.
func (s *State) InitIdealized(c IdealizedCase) {
	switch c {
	case CaseTropicalCyclone:
		s.IsothermalRest(300)
		s.AddVortex(0.35, 2.0, 35, 0.06)
	case CaseSupercell:
		s.IsothermalRest(300)
		// Strong near-surface thermal plus unidirectional shear.
		s.AddThermalBubble(0.1, 1.0, 0.12, 12)
		s.addShearWind(5, 25)
	case CaseBaroclinicWave:
		s.initBaroclinicWave()
	}
}

// addShearWind adds a zonal wind increasing linearly from uBot at the
// surface to uTop at the model top.
func (s *State) addShearWind(uBot, uTop float64) {
	m := s.M
	for e := 0; e < m.NEdges; e++ {
		lat, _ := m.EdgePos[e].LatLon()
		east, _ := mesh.TangentBasis(m.EdgePos[e])
		for k := 0; k < s.NLev; k++ {
			frac := 1 - (float64(k)+0.5)/float64(s.NLev) // 1 at top
			u := uBot + (uTop-uBot)*frac
			s.U[e*s.NLev+k] += east.Scale(u * math.Cos(lat)).Dot(m.EdgeNormal[e])
		}
	}
}

// initBaroclinicWave builds a zonally symmetric mid-latitude state in
// approximate thermal-wind balance (a reduced Jablonowski-Williamson
// setup) and adds the standard small Gaussian zonal-wind perturbation
// that seeds the growing wave.
func (s *State) initBaroclinicWave() {
	m := s.M
	nlev := s.NLev
	const psfc = 1.0e5
	dpi := (psfc - PTop) / float64(nlev)

	// Meridional temperature structure: warm tropics, cold poles, with
	// the gradient concentrated in mid-latitudes.
	surfT := func(lat float64) float64 {
		return 305 - 35*math.Pow(math.Sin(lat), 2)
	}
	// The lapse-rate cooling and the temperature-to-theta factor depend
	// on the level alone: every rank of a distributed run builds the
	// whole mesh's initial state, so they are tabulated, not re-evaluated
	// per cell.
	cooling := make([]float64, nlev)
	toTheta := make([]float64, nlev)
	for k := range cooling {
		p := PTop + (float64(k)+0.5)*dpi
		cooling[k] = 48.75 * math.Log(psfc/p) // ~6.5 K/km
		toTheta[k] = math.Pow(P0/p, Rd/Cp)
	}
	for c := 0; c < m.NCells; c++ {
		t0 := surfT(m.CellLat[c])
		s.PhiSurf[c] = 0
		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			tK := t0 - cooling[k]
			if tK < 200 {
				tK = 200
			}
			s.DryMass[i] = dpi
			s.ThetaM[i] = dpi * tK * toTheta[k]
		}
	}
	HydrostaticRebalance(s)

	// Zonal jet in approximate balance with the temperature field, plus
	// the perturbation: a small Gaussian bump upstream (JW06-style), the
	// same at every level.
	bumpCenter := mesh.FromLatLon(0.70, 0.35)
	for e := 0; e < m.NEdges; e++ {
		lat, _ := m.EdgePos[e].LatLon()
		east, _ := mesh.TangentBasis(m.EdgePos[e])
		jet := 38 * math.Exp(-math.Pow((math.Abs(lat)-0.78)/0.25, 2)) // ~45 deg
		d := mesh.ArcLength(m.EdgePos[e], bumpCenter)
		bump := 1.5 * math.Exp(-math.Pow(d/0.1, 2))
		cosLat := math.Cos(lat)
		for k := 0; k < nlev; k++ {
			height := 1 - (float64(k)+0.5)/float64(nlev)
			u := jet*height + bump
			s.U[e*nlev+k] += east.Scale(u * cosLat).Dot(m.EdgeNormal[e])
		}
	}
}

// TotalEnergy returns the (dry) total energy integral: internal +
// potential + kinetic, J. Conserved approximately by the adiabatic
// solver; a useful regression diagnostic.
func (s *State) TotalEnergy() float64 {
	m := s.M
	nlev := s.NLev
	var total float64

	// Kinetic energy from the TRiSK cell formula.
	ke := make([]float64, m.NCells*nlev)
	for c := int32(0); c < int32(m.NCells); c++ {
		inv := 1.0 / m.CellArea[c]
		for kk := m.CellOff[c]; kk < m.CellOff[c+1]; kk++ {
			e := m.CellEdge[kk]
			w := 0.25 * m.DvEdge[e] * m.DcEdge[e] * inv
			for k := 0; k < nlev; k++ {
				u := s.U[int(e)*nlev+k]
				ke[int(c)*nlev+k] += w * u * u
			}
		}
	}
	for c := 0; c < m.NCells; c++ {
		area := m.CellArea[c]
		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			mass := s.DryMass[i] / Gravity // kg/m^2
			theta := s.ThetaM[i] / s.DryMass[i]
			pMid := s.LayerPressureFromPhi(c, k)
			tK := theta * math.Pow(pMid/P0, Rd/Cp)
			phiMid := 0.5 * (s.Phi[c*(nlev+1)+k] + s.Phi[c*(nlev+1)+k+1])
			wMid := 0.5 * (s.W[c*(nlev+1)+k] + s.W[c*(nlev+1)+k+1])
			total += area * mass * (Cv*tK + phiMid + ke[i] + 0.5*wMid*wMid)
		}
	}
	return total
}

// MaxWind returns the maximum |u| over all edges and levels.
func (s *State) MaxWind() float64 {
	var m float64
	for _, u := range s.U {
		if a := math.Abs(u); a > m {
			m = a
		}
	}
	return m
}
