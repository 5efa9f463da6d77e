package dycore

import "gristgo/internal/tracer"

// Remapper performs the vertical remap with preallocated column scratch,
// so the periodic remap inside the model step costs zero steady-state
// allocations (guarded by TestRemapperRunAllocFree). Construct one per
// (state, tracer) shape with NewRemapper and call Run each remap
// interval; the one-shot VerticalRemap wrapper remains for callers that
// remap rarely enough not to care.
type Remapper struct {
	srcEdges, dstEdges []float64
	thetaNew, wNew     []float64
	wMid               []float64
	qNew               [tracer.NumSpecies][]float64
}

// NewRemapper allocates scratch for columns of nlev layers.
func NewRemapper(nlev int) *Remapper {
	r := &Remapper{
		srcEdges: make([]float64, nlev+1),
		dstEdges: make([]float64, nlev+1),
		thetaNew: make([]float64, nlev),
		wNew:     make([]float64, nlev),
		wMid:     make([]float64, nlev),
	}
	for t := range r.qNew {
		r.qNew[t] = make([]float64, nlev)
	}
	return r
}

// VerticalRemap restores the layer distribution of a vertically
// Lagrangian integration: the HEVI solver holds dry mass in material
// layers (no cross-layer transport), so long integrations gradually
// deform the layer thicknesses. Remap conservatively redistributes the
// column onto uniform-sigma target layers — the standard
// Lin (2004)-style remap step used by vertically Lagrangian cores.
//
// The remap is first-order conservative (piecewise-constant
// reconstruction in dry-mass space): column integrals of dry mass,
// mass-weighted potential temperature, and every tracer are preserved to
// rounding. Vertical velocity and geopotential are re-derived: w is
// remapped like a mass-weighted scalar and phi is rebuilt hydrostatically
// (the acoustic adjustment re-establishes any nonhydrostatic residual
// within a few steps).
func VerticalRemap(s *State, tracers *tracer.Field) {
	NewRemapper(s.NLev).Run(s, tracers)
}

// Run remaps every column of s (and tracers, when non-nil) onto
// uniform-sigma target layers. See VerticalRemap for the scheme.
func (r *Remapper) Run(s *State, tracers *tracer.Field) {
	nlev := s.NLev
	nc := s.M.NCells
	srcEdges, dstEdges := r.srcEdges, r.dstEdges
	thetaNew, wNew, wMid := r.thetaNew, r.wNew, r.wMid

	for c := 0; c < nc; c++ {
		base := c * nlev

		// Source interface coordinates (accumulated dry mass from the top).
		srcEdges[0] = 0
		for k := 0; k < nlev; k++ {
			srcEdges[k+1] = srcEdges[k] + s.DryMass[base+k]
		}
		colMass := srcEdges[nlev]
		// Target: uniform layers over the same column mass.
		for k := 0; k <= nlev; k++ {
			dstEdges[k] = colMass * float64(k) / float64(nlev)
		}

		// Remap each mass-weighted quantity by overlap integration.
		remapInto(srcEdges, dstEdges, s.ThetaM[base:base+nlev], s.DryMass[base:base+nlev], thetaNew)
		for k := 0; k < nlev; k++ {
			wMid[k] = 0.5 * (s.W[c*(nlev+1)+k] + s.W[c*(nlev+1)+k+1]) * s.DryMass[base+k]
		}
		remapInto(srcEdges, dstEdges, wMid, s.DryMass[base:base+nlev], wNew)
		if tracers != nil {
			for t := range tracers.Q {
				remapInto(srcEdges, dstEdges, tracers.Q[t][base:base+nlev], s.DryMass[base:base+nlev], r.qNew[t])
			}
		}

		// Commit the new column.
		dpiNew := colMass / float64(nlev)
		for k := 0; k < nlev; k++ {
			s.DryMass[base+k] = dpiNew
			s.ThetaM[base+k] = thetaNew[k]
			if tracers != nil {
				tracers.Mass[base+k] = dpiNew
				for t := range tracers.Q {
					tracers.Q[t][base+k] = r.qNew[t][k]
				}
			}
		}
		// Interface w from the remapped mass-weighted mids (boundaries
		// pinned at zero like the implicit solver's BCs).
		ibase := c * (nlev + 1)
		s.W[ibase] = 0
		s.W[ibase+nlev] = 0
		for i := 1; i < nlev; i++ {
			s.W[ibase+i] = 0.5 * (wNew[i-1] + wNew[i]) / dpiNew
		}
	}
	HydrostaticRebalance(s)
}

// remapInto conservatively transfers a mass-weighted source quantity
// (src, per source layer, already mass-weighted) onto destination layers
// by piecewise-constant overlap in the mass coordinate. srcMass gives
// the source layer thicknesses (used to form intensive values).
func remapInto(srcEdges, dstEdges, src, srcMass, dst []float64) {
	n := len(src)
	for k := range dst {
		dst[k] = 0
	}
	si := 0
	for di := 0; di < n; di++ {
		lo, hi := dstEdges[di], dstEdges[di+1]
		for si < n && srcEdges[si+1] <= lo {
			si++
		}
		for j := si; j < n && srcEdges[j] < hi; j++ {
			overlap := minF(hi, srcEdges[j+1]) - maxF(lo, srcEdges[j])
			if overlap <= 0 {
				continue
			}
			// Intensive value of source layer j times overlapped mass.
			if srcMass[j] > 0 {
				dst[di] += src[j] / srcMass[j] * overlap
			}
		}
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
