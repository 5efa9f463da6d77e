package physics

import "math"

// Radiation is a two-stream grey radiation scheme with an RRTMG-style
// spectral band loop: NumBands shortwave and longwave bands, each with
// its own absorption coefficients, computed per layer with explicit
// exponentials. Like RRTMG it is memory-light but branch- and
// transcendental-heavy, which is what keeps it near 6% of peak FLOPS on
// the MPE (the figure the paper quotes when motivating the ML radiation
// module, §4.7).
type Radiation struct {
	nlev int

	// Per-band absorption parameters.
	swWeight []float64 // fraction of solar flux per band
	swKdry   []float64 // dry absorption per Pa
	swKvap   []float64 // vapor absorption per (kg/kg * Pa)
	lwWeight []float64
	lwKdry   []float64
	lwKvap   []float64
}

// NumBands is the number of spectral bands per stream, matching RRTMG's
// 16-band structure.
const NumBands = 16

// NewRadiation builds the banded grey scheme.
func NewRadiation(nlev int) *Radiation {
	r := &Radiation{
		nlev:     nlev,
		swWeight: make([]float64, NumBands),
		swKdry:   make([]float64, NumBands),
		swKvap:   make([]float64, NumBands),
		lwWeight: make([]float64, NumBands),
		lwKdry:   make([]float64, NumBands),
		lwKvap:   make([]float64, NumBands),
	}
	var wsum float64
	for b := 0; b < NumBands; b++ {
		// Band weights decay across the spectrum; absorption varies by
		// orders of magnitude between window and vapor bands.
		w := math.Exp(-0.25 * float64(b))
		r.swWeight[b] = w
		r.lwWeight[b] = w
		wsum += w
		x := float64(b) / float64(NumBands-1)
		r.swKdry[b] = 2e-7 * (0.3 + x)
		r.swKvap[b] = 4e-4 * math.Pow(10, 2*x-1)
		r.lwKdry[b] = 6e-7 * (0.5 + x)
		r.lwKvap[b] = 2.5e-3 * math.Pow(10, 2*x-1.3)
	}
	for b := 0; b < NumBands; b++ {
		r.swWeight[b] /= wsum
		r.lwWeight[b] /= wsum
	}
	return r
}

// Compute adds radiative heating to out.Q1 and fills the surface
// radiation diagnostics gsw/glw.
func (r *Radiation) Compute(in *Input, out *Output) {
	nlev := r.nlev
	for c := 0; c < in.NCol; c++ {
		base := c * nlev

		// --- Shortwave: banded beam absorption top-down. ---
		mu := in.CosZ[c]
		var gsw float64
		if mu > 1e-4 {
			for b := 0; b < NumBands; b++ {
				flux := Solar * mu * r.swWeight[b]
				for k := 0; k < nlev; k++ {
					tau := (r.swKdry[b] + r.swKvap[b]*in.Qv[base+k]) * in.Dpi[base+k]
					trans := math.Exp(-tau / mu)
					absorbed := flux * (1 - trans)
					// Heating rate: dT/dt = g*F_abs/(cp*dpi).
					out.Q1[base+k] += 9.80616 * absorbed / (Cp * in.Dpi[base+k])
					flux *= trans
				}
				gsw += flux
			}
		}
		out.Gsw[c] = gsw

		// --- Longwave: banded two-stream emission/absorption. ---
		var glw float64
		for b := 0; b < NumBands; b++ {
			// Downward pass.
			down := 0.0
			for k := 0; k < nlev; k++ {
				tau := (r.lwKdry[b] + r.lwKvap[b]*in.Qv[base+k]) * in.Dpi[base+k]
				emis := 1 - math.Exp(-tau)
				bb := r.lwWeight[b] * Sigma * pow4(in.T[base+k])
				newDown := down*(1-emis) + bb*emis
				// Layer heating from net absorbed downward flux.
				out.Q1[base+k] += 9.80616 * (down*emis - bb*emis) / (Cp * in.Dpi[base+k])
				down = newDown
			}
			glw += down
			// Upward pass from the surface.
			up := r.lwWeight[b] * Sigma * pow4(in.Tskin[c])
			for k := nlev - 1; k >= 0; k-- {
				tau := (r.lwKdry[b] + r.lwKvap[b]*in.Qv[base+k]) * in.Dpi[base+k]
				emis := 1 - math.Exp(-tau)
				bb := r.lwWeight[b] * Sigma * pow4(in.T[base+k])
				out.Q1[base+k] += 9.80616 * (up*emis - bb*emis) / (Cp * in.Dpi[base+k])
				up = up*(1-emis) + bb*emis
			}
		}
		out.Glw[c] = glw
	}
}

func pow4(x float64) float64 {
	x2 := x * x
	return x2 * x2
}

// FlopsPerColumn estimates the floating-point work of one radiated
// column — used by the performance model to contrast RRTMG-style
// radiation (low achieved FLOPS fraction) with the ML radiation module.
func (r *Radiation) FlopsPerColumn() float64 {
	// 3 passes x NumBands x nlev x ~12 flops (incl. exp ~ 4 flop-equiv).
	return float64(3 * NumBands * r.nlev * 12)
}
