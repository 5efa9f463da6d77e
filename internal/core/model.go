// Package core assembles the full AI-enhanced GRIST-style model (Fig. 3
// of the paper): the nonhydrostatic dynamical core, the sub-cycled
// passive tracer transport driven by the double-precision accumulated
// mass flux, and a pluggable physics suite (conventional or ML-based)
// coupled through the physics-dynamics interface, with prescribed
// SST/sea-ice, an active slab land surface and ERA5-like initial fields
// from the synthetic climatology.
package core

import (
	"math"

	"gristgo/internal/dycore"
	"gristgo/internal/mesh"
	"gristgo/internal/physics"
	"gristgo/internal/precision"
	"gristgo/internal/synthclim"
	"gristgo/internal/tracer"
)

// Config selects a model configuration: a grid level and layer count
// (Table 2), a precision mode and a physics suite (Table 3), and the
// sub-cycled timesteps. When Steps is zero-valued, timesteps are scaled
// from the Table 2 G12 configuration by the grid spacing ratio so that
// coarse test grids run with stable, proportionally larger steps.
type Config struct {
	GridLevel int
	NLev      int
	Mode      precision.Mode
	Steps     mesh.TimestepConfig
	// HostWorkers runs the dycore loops across this many host threads
	// (the shared-memory OpenMP analog; 0/1 serial, negative = all CPUs).
	HostWorkers int
}

// scaledSteps returns timesteps scaled from the paper's G12 settings
// (dyn 4 s at ~1.5 km) linearly with cell spacing, preserving the Table 2
// ratios 4:30:60:180. The scale factor is capped so that physics steps on
// very coarse test grids stay within the validity of the process schemes
// (slab surface, adjustment convection).
func scaledSteps(level int) mesh.TimestepConfig {
	factor := math.Pow(2, float64(12-level))
	if factor > 30 {
		factor = 30
	}
	return mesh.TimestepConfig{
		Dyn:  4 * factor,
		Trac: 30 * factor,
		Phy:  60 * factor,
		Rad:  180 * factor,
	}
}

// Model is the coupled atmosphere + land model on one mesh.
type Model struct {
	Cfg    Config
	Mesh   *mesh.Mesh
	Engine dycore.Engine

	Tracers   *tracer.Field
	Transport tracer.Transport
	avgFlux   []float64 // sub-cycle mean of the accumulated mass flux

	Physics physics.Scheme
	In      *physics.Input
	Out     *physics.Output

	// Boundary conditions (prescribed SST/sea ice enter through the skin
	// temperature of ocean cells).
	Land   []float64
	SSTFix []float64 // prescribed skin temperature over ocean; NaN over land

	// Climate state captured at initialization, used for the marine
	// boundary-layer moisture forcing.
	Clim synthclim.Climate

	// MoistureNudgeTau is the relaxation timescale (seconds) of the
	// lowest layers' humidity toward the climatological value — the
	// substitute for unresolved moisture convergence that maintains a
	// raining tropics at coarse reproduction grids (0 disables).
	MoistureNudgeTau float64

	// RemapEvery triggers the conservative vertical remap after every N
	// physics steps, restoring uniform-sigma layers of the vertically
	// Lagrangian integration (0 disables). remapper holds the column
	// scratch so the periodic remap stays allocation-free.
	RemapEvery int
	stepCount  int
	remapper   *dycore.Remapper

	// Accumulated diagnostics.
	PrecipAccum []float64 // mm since last ResetDiagnostics
	TimeSec     float64   // model time since initialization
	precipTime  float64   // seconds accumulated into PrecipAccum

	// Observability wiring installed by EnableTelemetry (nil: disabled).
	tel *ModelTelemetry
}

// NewModel constructs a model on a freshly generated, BFS-reordered mesh.
func NewModel(cfg Config, scheme physics.Scheme) *Model {
	m := mesh.New(cfg.GridLevel).ReorderBFS()
	return NewModelOnMesh(cfg, scheme, m)
}

// NewModelOnMesh constructs a model over an existing mesh (meshes are
// expensive to build; tests and experiment harnesses share them).
func NewModelOnMesh(cfg Config, scheme physics.Scheme, m *mesh.Mesh) *Model {
	if cfg.Steps == (mesh.TimestepConfig{}) {
		cfg.Steps = scaledSteps(cfg.GridLevel)
	}
	eng := dycore.New(m, cfg.NLev, cfg.Mode)
	if cfg.HostWorkers != 0 {
		eng.SetHostParallelism(cfg.HostWorkers)
		// Physics suites with their own worker pools (the ML inference
		// engine) share the host-parallelism knob.
		if ws, ok := scheme.(interface{ SetWorkers(int) }); ok {
			ws.SetWorkers(cfg.HostWorkers)
		}
	}
	mod := &Model{
		Cfg:    cfg,
		Mesh:   m,
		Engine: eng,

		Tracers:   tracer.NewField(m, cfg.NLev, eng.State().DryMass),
		Transport: tracer.New(m, cfg.NLev, cfg.Mode),
		avgFlux:   make([]float64, m.NEdges*cfg.NLev),

		Physics: scheme,
		In:      physics.NewInput(m.NCells, cfg.NLev),
		Out:     physics.NewOutput(m.NCells, cfg.NLev),

		Land:        make([]float64, m.NCells),
		SSTFix:      make([]float64, m.NCells),
		PrecipAccum: make([]float64, m.NCells),

		MoistureNudgeTau: 6 * 3600,
	}
	return mod
}

// InitializeClimate sets the initial condition from the synthetic
// climatology (the ERA5 substitute): hydrostatically balanced columns
// under the climatological surface temperature, humidity scaled into the
// vapor tracer, the climatological zonal wind, prescribed SST/sea-ice
// over ocean and an interactive land surface elsewhere.
func (mod *Model) InitializeClimate(cl synthclim.Climate) {
	m := mod.Mesh
	nlev := mod.Cfg.NLev
	s := mod.Engine.State()

	const psfc = 1.0e5
	dpi := (psfc - dycore.PTop) / float64(nlev)
	for c := 0; c < m.NCells; c++ {
		lat, lon := m.CellLat[c], m.CellLon[c]
		tSfc := cl.SurfaceTemperature(lat, lon)
		rhSfc := cl.SurfaceHumidity(lat, lon)
		mod.Land[c] = synthclim.LandFraction(lat, lon)
		mod.In.Land[c] = mod.Land[c]
		ice := cl.SeaIce(lat)
		sst := cl.SST(lat, lon)
		if ice > 0 {
			sst = math.Min(sst, 271.35)
		}
		if mod.Land[c] < 0.5 {
			mod.SSTFix[c] = sst
			mod.In.Tskin[c] = sst
		} else {
			mod.SSTFix[c] = math.NaN()
			mod.In.Tskin[c] = tSfc
		}

		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			p := dycore.PTop + (float64(k)+0.5)*dpi
			// Temperature: 6.5 K/km tropospheric lapse expressed in
			// log-pressure with a 7.5 km scale height, over an isothermal
			// 200 K stratosphere.
			tK := tSfc - 6.5e-3*7500*math.Log(psfc/p)
			if tK < 200 {
				tK = 200
			}
			s.DryMass[i] = dpi
			theta := tK * math.Pow(dycore.P0/p, dycore.Rd/dycore.Cp)
			s.ThetaM[i] = dpi * theta
			// Moisture decays sharply upward; the lowest mid-layer gets
			// the full surface relative humidity.
			pBot := psfc - 0.5*dpi
			sig := p / pBot
			q := rhSfc * sig * sig * sig * physics.SatMixingRatio(tK, p)
			mod.Tracers.Mass[i] = dpi
			mod.Tracers.SetMixingRatio(tracer.QV, c, k, q)
		}
	}
	dycore.HydrostaticRebalance(s)

	// Climatological zonal wind on edges.
	for e := 0; e < m.NEdges; e++ {
		lat, _ := m.EdgePos[e].LatLon()
		east, _ := mesh.TangentBasis(m.EdgePos[e])
		for k := 0; k < nlev; k++ {
			sigma := (float64(k) + 0.5) / float64(nlev)
			u := cl.ZonalWind(lat, sigma)
			s.U[e*nlev+k] = east.Scale(u).Dot(m.EdgeNormal[e])
		}
	}
	mod.TimeSec = 0
}

// CosZenith returns the cosine of the solar zenith angle at a cell for
// the current model time (daily cycle plus seasonal declination).
func (mod *Model) CosZenith(c int, season float64) float64 {
	lat := mod.Mesh.CellLat[c]
	lon := mod.Mesh.CellLon[c]
	decl := 0.409 * math.Sin(season-1.39) // solar declination
	hour := 2*math.Pi*mod.TimeSec/86400 + lon
	cosz := math.Sin(lat)*math.Sin(decl) + math.Cos(lat)*math.Cos(decl)*math.Cos(hour)
	if cosz < 0 {
		return 0
	}
	return cosz
}

// EffectiveSteps returns the sub-cycle counts and effective step lengths
// actually integrated. Table 2's nominal ratios are not all integral
// (trac/dyn = 7.5 at G12), so the tracer step rounds up to a whole number
// of dynamics steps and uses the exactly elapsed time, keeping tracer
// mass consistent with dry mass.
func (mod *Model) EffectiveSteps() (nDyn, nTrac int, dtTrac, dtPhy float64) {
	st := mod.Cfg.Steps
	nDyn = int(math.Ceil(st.Trac/st.Dyn - 1e-9))
	if nDyn < 1 {
		nDyn = 1
	}
	dtTrac = float64(nDyn) * st.Dyn
	nTrac = int(math.Round(st.Phy / dtTrac))
	if nTrac < 1 {
		nTrac = 1
	}
	dtPhy = float64(nTrac) * dtTrac
	return nDyn, nTrac, dtTrac, dtPhy
}

// StepPhysics advances the model by one physics step: the dynamics
// sub-cycles at Steps.Dyn, tracers sub-cycle on the accumulated
// double-precision mass flux, then the physics suite runs once and its
// Q1/Q2 feed back through the coupling interface.
func (mod *Model) StepPhysics(season float64) { mod.StepPhysicsTimed(season, nil) }

// transportTracers advances the tracers by one sub-cycle on the
// accumulated mass flux averaged over its dynamics steps.
func (mod *Model) transportTracers(dtTrac float64) {
	averageMassFlux(mod.avgFlux, mod.Engine)
	mod.Transport.Step(mod.Tracers, mod.avgFlux, dtTrac)
}

// averageMassFlux writes the mean of eng's accumulated FP64 mass flux
// over the accumulated steps into avg: the flux that drives a tracer
// sub-cycle, serial or on a rank.
func averageMassFlux(avg []float64, eng dycore.Engine) {
	n := float64(eng.AccumSteps())
	for i, a := range eng.MassFluxAccum() {
		avg[i] = a / n
	}
}

// computePhysicsInput fills the coupling Input (U, V, T, Q, P, tskin,
// coszr — §3.2.4) from the dynamical state.
func (mod *Model) computePhysicsInput(season float64) {
	m := mod.Mesh
	nlev := mod.Cfg.NLev
	s := mod.Engine.State()
	in := mod.In

	uc, vc := CellWinds(m, s.U, nlev)
	copy(in.U, uc)
	copy(in.V, vc)

	for c := 0; c < m.NCells; c++ {
		pIface := dycore.PTop
		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			dpi := s.DryMass[i]
			p := pIface + 0.5*dpi
			pIface += dpi
			theta := s.ThetaM[i] / dpi
			in.P[i] = p
			in.Dpi[i] = dpi
			in.T[i] = theta * math.Pow(p/dycore.P0, dycore.Rd/dycore.Cp)
			in.Qv[i] = mod.Tracers.MixingRatio(tracer.QV, c, k)
		}
		in.CosZ[c] = mod.CosZenith(c, season)
		in.Land[c] = mod.Land[c]
		// Prescribed SST: reset ocean skin temperature each step.
		if !math.IsNaN(mod.SSTFix[c]) {
			in.Tskin[c] = mod.SSTFix[c]
		}
	}
}

// applyPhysicsOutput feeds Q1 into the potential-temperature equation,
// Q2 into the vapor tracer, and accumulates precipitation.
func (mod *Model) applyPhysicsOutput(dt float64) {
	m := mod.Mesh
	nlev := mod.Cfg.NLev

	mod.Engine.ApplyHeating(mod.Out.Q1, dt)
	for c := 0; c < m.NCells; c++ {
		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			q := mod.Tracers.MixingRatio(tracer.QV, c, k) + dt*mod.Out.Q2[i]
			if q < 0 {
				q = 0
			}
			mod.Tracers.SetMixingRatio(tracer.QV, c, k, q)
		}
		mod.PrecipAccum[c] += mod.Out.Precip[c] * dt / 86400 // mm
	}
	// Prognostic condensate chain: cloud water/ice from Out.Cond,
	// autoconversion to rain/snow/graupel, fallout to the surface.
	for c, p := range mod.stepCloudChain(dt) {
		mod.PrecipAccum[c] += p * dt / 86400
	}
	mod.precipTime += dt

	// Marine boundary-layer moisture forcing: relax the lowest three
	// layers toward the climatological humidity. This substitutes for
	// the unresolved moisture convergence that keeps the real tropics
	// convecting (repro substitution; see DESIGN.md).
	if mod.MoistureNudgeTau > 0 {
		w := dt / mod.MoistureNudgeTau
		if w > 1 {
			w = 1
		}
		for c := 0; c < m.NCells; c++ {
			rhClim := mod.Clim.SurfaceHumidity(m.CellLat[c], m.CellLon[c])
			for k := nlev - 3; k < nlev; k++ {
				if k < 0 {
					continue
				}
				i := c*nlev + k
				qTarget := rhClim * physics.SatMixingRatio(mod.In.T[i], mod.In.P[i])
				if mod.In.T[i] == 0 {
					continue // physics input not yet populated
				}
				q := mod.Tracers.MixingRatio(tracer.QV, c, k)
				if qTarget > q {
					mod.Tracers.SetMixingRatio(tracer.QV, c, k, q+w*(qTarget-q))
				}
			}
		}
	}
}

// PrecipRate returns the mean precipitation rate (mm/day) since the last
// ResetDiagnostics.
func (mod *Model) PrecipRate() []float64 {
	out := make([]float64, len(mod.PrecipAccum))
	if mod.precipTime == 0 {
		return out
	}
	for c, p := range mod.PrecipAccum {
		out[c] = p / mod.precipTime * 86400
	}
	return out
}

// ResetDiagnostics zeroes the accumulated diagnostics.
func (mod *Model) ResetDiagnostics() {
	for i := range mod.PrecipAccum {
		mod.PrecipAccum[i] = 0
	}
	mod.precipTime = 0
}

// RunHours advances the model by (approximately) the given number of
// simulated hours, in whole physics steps.
func (mod *Model) RunHours(h, season float64) {
	_, _, _, dtPhy := mod.EffectiveSteps()
	steps := int(math.Round(h * 3600 / dtPhy))
	if steps < 1 {
		steps = 1
	}
	for i := 0; i < steps; i++ {
		mod.StepPhysics(season)
	}
}

// CellWinds reconstructs cell-centered (east, north) wind components
// from edge-normal velocities by per-cell least squares — exact for
// uniform flow over the cell's edge normals.
func CellWinds(m *mesh.Mesh, u []float64, nlev int) (uc, vc []float64) {
	uc = make([]float64, m.NCells*nlev)
	vc = make([]float64, m.NCells*nlev)
	for c := int32(0); c < int32(m.NCells); c++ {
		east, north := mesh.TangentBasis(m.CellPos[c])
		// Normal matrix of the 2x2 least-squares system.
		var a11, a12, a22 float64
		type proj struct{ ne, nn float64 }
		deg := m.CellDegree(c)
		projs := make([]proj, deg)
		for j := 0; j < deg; j++ {
			ed := m.CellEdge[m.CellOff[c]+int32(j)]
			n := m.EdgeNormal[ed]
			pe, pn := n.Dot(east), n.Dot(north)
			projs[j] = proj{pe, pn}
			a11 += pe * pe
			a12 += pe * pn
			a22 += pn * pn
		}
		det := a11*a22 - a12*a12
		if det == 0 {
			continue
		}
		for k := 0; k < nlev; k++ {
			var b1, b2 float64
			for j := 0; j < deg; j++ {
				ed := m.CellEdge[m.CellOff[c]+int32(j)]
				ue := u[int(ed)*nlev+k]
				b1 += projs[j].ne * ue
				b2 += projs[j].nn * ue
			}
			uc[int(c)*nlev+k] = (a22*b1 - a12*b2) / det
			vc[int(c)*nlev+k] = (a11*b2 - a12*b1) / det
		}
	}
	return uc, vc
}

// SetTerrain installs a surface-geopotential field from an elevation
// function (meters), thins the overlying dry-air columns with the
// barometric factor exp(-g h / (Rd T0)) so surface pressure is
// consistent with the elevation, and rebalances the columns
// hydrostatically.
func (mod *Model) SetTerrain(elev func(lat, lon float64) float64) {
	m := mod.Mesh
	nlev := mod.Cfg.NLev
	s := mod.Engine.State()
	const t0 = 288.0
	for c := 0; c < m.NCells; c++ {
		h := elev(m.CellLat[c], m.CellLon[c])
		s.PhiSurf[c] = dycore.Gravity * h
		scale := math.Exp(-dycore.Gravity * h / (dycore.Rd * t0))
		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			theta := s.ThetaM[i] / s.DryMass[i]
			q := mod.Tracers.MixingRatio(tracer.QV, c, k)
			s.DryMass[i] *= scale
			s.ThetaM[i] = s.DryMass[i] * theta
			mod.Tracers.Mass[i] = s.DryMass[i]
			mod.Tracers.SetMixingRatio(tracer.QV, c, k, q)
		}
	}
	dycore.HydrostaticRebalance(s)
}

// OrographicPrecip diagnoses upslope precipitation enhancement (a
// Smith-type linear upslope model): where the low-level wind blows up
// the resolved terrain gradient, moisture is lifted and rained out.
// Returns mm/day per cell. Finer meshes resolve steeper slopes, which is
// the resolution sensitivity at the heart of the Fig. 7 comparison.
func (mod *Model) OrographicPrecip() []float64 {
	m := mod.Mesh
	nlev := mod.Cfg.NLev
	s := mod.Engine.State()
	out := make([]float64, m.NCells)

	// Low-level cell winds.
	uc, vc := CellWinds(m, s.U, nlev)
	k := nlev - 1
	for c := int32(0); c < int32(m.NCells); c++ {
		// Resolved terrain gradient by least squares over neighbors.
		east, north := mesh.TangentBasis(m.CellPos[c])
		var a11, a12, a22, b1, b2 float64
		h0 := s.PhiSurf[c] / dycore.Gravity
		for kk := m.CellOff[c]; kk < m.CellOff[c+1]; kk++ {
			nb := m.CellCell[kk]
			d := m.CellPos[nb].Sub(m.CellPos[c])
			dx := d.Dot(east) * m.Radius
			dy := d.Dot(north) * m.Radius
			dh := s.PhiSurf[nb]/dycore.Gravity - h0
			a11 += dx * dx
			a12 += dx * dy
			a22 += dy * dy
			b1 += dx * dh
			b2 += dy * dh
		}
		det := a11*a22 - a12*a12
		if det == 0 {
			continue
		}
		gx := (a22*b1 - a12*b2) / det
		gy := (a11*b2 - a12*b1) / det

		i := int(c)*nlev + k
		wOro := uc[i]*gx + vc[i]*gy // upslope vertical motion, m/s
		if wOro <= 0 {
			continue
		}
		qv := mod.Tracers.MixingRatio(tracer.QV, int(c), k)
		rho := mod.In.P[i] / (dycore.Rd * math.Max(mod.In.T[i], 150))
		// Condensation efficiency ~0.7; kg/m^2/s -> mm/day.
		out[c] = 0.7 * rho * wOro * qv * 86400
	}
	return out
}

// InitializeAquaplanet sets the artifact's demo configuration
// (demo-g6-aqua): an all-ocean planet with the zonally symmetric SST of
// the synthetic climatology, no sea ice, no terrain. Aquaplanets are the
// standard configuration for physics-dynamics coupling studies because
// every zonal asymmetry that develops is generated by the model itself.
func (mod *Model) InitializeAquaplanet(cl synthclim.Climate) {
	mod.InitializeClimate(cl)
	m := mod.Mesh
	nlev := mod.Cfg.NLev
	s := mod.Engine.State()
	for c := 0; c < m.NCells; c++ {
		lat := m.CellLat[c]
		// Zonally symmetric SST: drop the ENSO/MJO longitude structure.
		sst := 300.5 - 30*math.Pow(math.Sin(lat), 2)
		mod.Land[c] = 0
		mod.In.Land[c] = 0
		mod.SSTFix[c] = sst
		mod.In.Tskin[c] = sst
		s.PhiSurf[c] = 0
		// Re-derive the column from the zonal-mean surface temperature.
		const psfc = 1.0e5
		dpi := (psfc - dycore.PTop) / float64(nlev)
		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			p := dycore.PTop + (float64(k)+0.5)*dpi
			tK := sst - 6.5e-3*7500*math.Log(psfc/p)
			if tK < 200 {
				tK = 200
			}
			s.DryMass[i] = dpi
			s.ThetaM[i] = dpi * tK * math.Pow(dycore.P0/p, dycore.Rd/dycore.Cp)
			rh := cl.SurfaceHumidity(lat, 0) // zonal mean
			pBot := psfc - 0.5*dpi
			sig := p / pBot
			mod.Tracers.Mass[i] = dpi
			mod.Tracers.SetMixingRatio(tracer.QV, c, k,
				rh*sig*sig*sig*physics.SatMixingRatio(tK, p))
		}
	}
	dycore.HydrostaticRebalance(s)
}
