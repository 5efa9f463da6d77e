package physics

import "math"

// Convection is a Betts-Miller-style moist convective adjustment: where a
// column is conditionally unstable and moist enough, temperature and
// moisture relax toward a moist-adiabatic reference profile over a fixed
// timescale, and the removed moisture rains out.
type Convection struct {
	Tau      float64 // adjustment timescale, s
	RhCrit   float64 // relative-humidity trigger
	RhTarget float64 // post-adjustment reference humidity
}

// NewConvection returns the scheme with standard parameters.
func NewConvection() *Convection {
	return &Convection{Tau: 7200, RhCrit: 0.75, RhTarget: 0.7}
}

// Compute adds convective tendencies to out and accumulates surface
// precipitation.
func (cv *Convection) Compute(in *Input, out *Output, dt float64) {
	nlev := in.NLev
	for c := 0; c < in.NCol; c++ {
		base := c * nlev

		// Closure: a smooth CAPE-like intensity rather than a binary
		// trigger, so convection persists at partial strength while
		// surface fluxes keep a column near moist-neutral (real tropics
		// rain continuously, not in a single adjustment burst).
		kSfc := nlev - 1
		kMid := nlev / 2
		thetaLow := theta(in.T[base+kSfc], in.P[base+kSfc])
		thetaMid := theta(in.T[base+kMid], in.P[base+kMid])
		rhLow := in.Qv[base+kSfc] / SatMixingRatio(in.T[base+kSfc], in.P[base+kSfc])
		instab := (thetaLow + Lv/Cp*in.Qv[base+kSfc]) - (thetaMid + Lv/Cp*in.Qv[base+kMid])
		sI := clamp01(instab / 8)
		sRH := clamp01((rhLow - (cv.RhCrit - 0.15)) / 0.3)
		strength := sI * sRH
		if strength <= 0 {
			continue
		}

		// Reference: moist adiabat anchored at the lifted surface parcel.
		var rain float64 // Pa * kg/kg of column moisture removed per second
		for k := kMid; k < nlev; k++ {
			qsat := SatMixingRatio(in.T[base+k], in.P[base+k])
			qRef := cv.RhTarget * qsat
			dq := strength * (qRef - in.Qv[base+k]) / cv.Tau // negative: drying
			if dq > 0 {
				dq = 0 // convection only dries
			}
			// Latent heating balances the drying.
			out.Q2[base+k] += dq
			out.Q1[base+k] += -Lv / Cp * dq * 0.8 // bulk condensation efficiency
			rain += -dq * in.Dpi[base+k]
		}
		// Column rain (kg/m^2/s = mm/s): dpi/g * dq/dt summed.
		out.Precip[c] += rain / 9.80616 * 86400 // to mm/day
	}
}

// Microphysics is a bulk large-scale condensation scheme: saturation
// adjustment with latent heating; excess condensate precipitates.
type Microphysics struct {
	RhSat float64 // grid-scale saturation threshold
}

// NewMicrophysics returns the scheme with standard parameters: a
// Sundqvist-style critical relative humidity below one, so stratiform
// condensation begins before full grid-scale saturation (coarse cells
// are never uniformly saturated).
func NewMicrophysics() *Microphysics {
	return &Microphysics{RhSat: 0.85}
}

// Compute adds large-scale condensation tendencies.
func (mp *Microphysics) Compute(in *Input, out *Output, dt float64) {
	nlev := in.NLev
	for c := 0; c < in.NCol; c++ {
		base := c * nlev
		for k := 0; k < nlev; k++ {
			qsat := mp.RhSat * SatMixingRatio(in.T[base+k], in.P[base+k])
			if in.Qv[base+k] <= qsat {
				continue
			}
			// Condense with the classic 1/(1+gamma) correction where
			// gamma = L/cp * dqsat/dT.
			dqsatdT := qsat * Lv / (461.5 * in.T[base+k] * in.T[base+k])
			gamma := Lv / Cp * dqsatdT
			cond := (in.Qv[base+k] - qsat) / (1 + gamma) / dt
			out.Q2[base+k] -= cond
			out.Q1[base+k] += Lv / Cp * cond
			// Large-scale condensation feeds the cloud condensate
			// tracer; rain forms later by autoconversion in the cloud
			// chain (core.applyPhysicsOutput), not instantly.
			out.Cond[base+k] += cond
		}
	}
}

// BoundaryLayer is a K-profile vertical diffusion of heat and moisture
// with an implicit tridiagonal solve per column.
type BoundaryLayer struct {
	KMax  float64 // peak eddy diffusivity, m^2/s
	Depth int     // number of layers (from the surface) in the PBL
}

// NewBoundaryLayer returns the scheme with standard parameters.
func NewBoundaryLayer() *BoundaryLayer {
	return &BoundaryLayer{KMax: 30, Depth: 6}
}

// Compute adds PBL mixing tendencies for theta-like temperature and
// moisture (free troposphere untouched).
func (bl *BoundaryLayer) Compute(in *Input, out *Output, dt float64) {
	nlev := in.NLev
	depth := bl.Depth
	if depth > nlev-1 {
		depth = nlev - 1
	}
	for c := 0; c < in.NCol; c++ {
		base := c * nlev
		// Simple explicit down-gradient mixing between adjacent PBL
		// layers; the K-profile rises toward the surface.
		for k := nlev - depth; k < nlev-1; k++ {
			// Approximate layer thickness from hydrostatic: dz = Rd*T*dpi/(g*p).
			dz := Rd * in.T[base+k] * in.Dpi[base+k] / (9.80616 * in.P[base+k])
			frac := float64(k-(nlev-depth)) / float64(depth)
			kEddy := bl.KMax * (0.2 + 0.8*frac)
			rate := kEddy / (dz * dz)
			if rate*dt > 0.25 {
				rate = 0.25 / dt // stability clamp
			}
			dTheta := theta(in.T[base+k+1], in.P[base+k+1]) - theta(in.T[base+k], in.P[base+k])
			dQ := in.Qv[base+k+1] - in.Qv[base+k]
			out.Q1[base+k] += rate * dTheta * exner(in.P[base+k])
			out.Q1[base+k+1] -= rate * dTheta * exner(in.P[base+k+1])
			out.Q2[base+k] += rate * dQ
			out.Q2[base+k+1] -= rate * dQ
		}
	}
}

// Surface is the surface-layer + slab-land scheme (the Noah-MP
// substitute): bulk sensible/latent fluxes into the lowest layer and a
// prognostic skin temperature driven by the radiation diagnostics.
type Surface struct {
	Cd       float64 // bulk transfer coefficient
	SlabHeat float64 // areal heat capacity of the slab, J/m^2/K
}

// NewSurface returns the scheme with standard parameters.
func NewSurface() *Surface {
	return &Surface{Cd: 1.3e-3, SlabHeat: 2e5}
}

// Compute applies surface fluxes to the lowest layer and advances the
// skin temperature (in.Tskin is updated in place — the land state is
// prognostic, as with Noah-MP).
func (sf *Surface) Compute(in *Input, out *Output, dt float64) {
	nlev := in.NLev
	for c := 0; c < in.NCol; c++ {
		k := nlev - 1
		i := c*nlev + k
		wind := math.Hypot(in.U[i], in.V[i]) + 1.0
		rhoAir := in.P[i] / (Rd * in.T[i])

		// Bulk fluxes (positive upward, W/m^2).
		sh := rhoAir * Cp * sf.Cd * wind * (in.Tskin[c] - in.T[i])
		qsatS := SatMixingRatio(in.Tskin[c], in.P[i])
		beta := 0.45 + 0.45*(1-in.Land[c]) // ocean evaporates more freely
		lh := rhoAir * Lv * sf.Cd * wind * beta * (qsatS - in.Qv[i])
		if lh < 0 {
			lh = 0
		}

		// Lowest-layer tendencies: dT/dt = g*SH/(cp*dpi).
		out.Q1[i] += 9.80616 * sh / (Cp * in.Dpi[i])
		out.Q2[i] += 9.80616 * lh / (Lv * in.Dpi[i])

		// Slab energy balance with the radiation diagnostics (the land
		// model consumes gsw/glw — exactly the coupling the ML radiation
		// module must reproduce, §3.2.3).
		net := out.Gsw[c]*(1-Albedo) + out.Glw[c] - Sigma*pow4(in.Tskin[c]) - sh - lh
		in.Tskin[c] += dt * net / sf.SlabHeat
	}
}

func theta(tK, p float64) float64 { return tK * math.Pow(1e5/p, Rd/Cp) }

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
func exner(p float64) float64 { return math.Pow(p/1e5, Rd/Cp) }
