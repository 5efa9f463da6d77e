package sunway

import (
	"math"

	"gristgo/internal/mesh"
	"gristgo/internal/precision"
)

// Variant selects one bar of the paper's Fig. 9: where the kernel runs,
// whether insensitive arrays are demoted to FP32 (MIX), and whether the
// address-distributing pool allocator is active (DST).
type Variant struct {
	OnCPE      bool
	Mixed      bool
	Distribute bool
}

// Label renders the Fig. 9 bar name.
func (v Variant) Label() string {
	s := "MPE-DP"
	if v.OnCPE {
		if v.Mixed {
			s = "CPE-MIX"
		} else {
			s = "CPE-DP"
		}
		if v.Distribute {
			s += "+DST"
		}
	}
	return s
}

// Fig9Variants lists the bars of Fig. 9 in presentation order.
func Fig9Variants() []Variant {
	return []Variant{
		{OnCPE: false},
		{OnCPE: true},
		{OnCPE: true, Distribute: true},
		{OnCPE: true, Mixed: true},
		{OnCPE: true, Mixed: true, Distribute: true},
	}
}

// Kernel is one of the major kernels studied in Fig. 9.
type Kernel struct {
	Name string
	// HasMixed reports whether the kernel has a mixed-precision
	// implementation (calc_coriolis_term does not — §4.6).
	HasMixed bool
	// Run executes the kernel under the variant on the given mesh
	// workload and returns the modeled stats plus a result checksum for
	// correctness comparisons.
	Run func(v Variant, m *mesh.Mesh, nlev int) (Stats, float64)
}

// word returns the simulated element width of insensitive arrays under
// the variant.
func word(v Variant, hasMixed bool) int {
	if v.Mixed && hasMixed {
		return FP32
	}
	return FP64
}

// run dispatches to the right engine.
func run(v Variant, n int, body KernelBody) Stats {
	if v.OnCPE {
		return RunCPEs(n, body)
	}
	return RunMPE(n, body)
}

// storeRounded models FP32 storage rounding for demoted arrays.
func storeRounded(ctx Ctx, a *Array, i int, val float64) {
	if a.Word == FP32 {
		val = precision.Round32(val)
	}
	ctx.Store(a, i, val)
}

// checksum sums an array for cross-variant correctness checks.
func checksum(a *Array) float64 {
	var s float64
	for _, x := range a.Data {
		s += x
	}
	return s
}

// fill initializes array data deterministically.
func fill(a *Array, f func(i int) float64) {
	for i := range a.Data {
		v := f(i)
		if a.Word == FP32 {
			v = precision.Round32(v)
		}
		a.Data[i] = v
	}
}

// Kernels returns the Fig. 9 kernel set.
func Kernels() []Kernel {
	return []Kernel{
		{Name: "tracer_transport_hori_flux_limiter", HasMixed: true, Run: tracerFluxLimiter},
		{Name: "compute_rrr", HasMixed: true, Run: computeRRR},
		{Name: "primal_normal_flux_edge", HasMixed: true, Run: primalNormalFluxEdge},
		{Name: "grad_kinetic_energy", HasMixed: true, Run: gradKineticEnergy},
		{Name: "div_mass_flux", HasMixed: true, Run: divMassFlux},
		{Name: "calc_coriolis_term", HasMixed: false, Run: calcCoriolisTerm},
	}
}

// tracerFluxLimiter models the Zalesak limiter application: per edge and
// level it touches eight working arrays with the same index plus the
// double-precision mass flux — the many-array access pattern that
// thrashes a 4-way LDCache without address distribution (§3.3.3).
func tracerFluxLimiter(v Variant, m *mesh.Mesh, nlev int) (Stats, float64) {
	w := word(v, true)
	al := NewAllocator(v.Distribute)
	ne := m.NEdges
	n := ne * nlev

	massFlux := al.Alloc("massflux", n, FP64) // always FP64 (§3.4.2)
	fluxLo := al.Alloc("fluxlo", n, w)
	fluxA := al.Alloc("fluxa", n, w)
	qtd0 := al.Alloc("qtd0", n, w)
	qtd1 := al.Alloc("qtd1", n, w)
	rp0 := al.Alloc("rplus0", n, w)
	rp1 := al.Alloc("rplus1", n, w)
	rm0 := al.Alloc("rminus0", n, w)
	rm1 := al.Alloc("rminus1", n, w)
	out := al.Alloc("limited", n, w)

	fill(massFlux, func(i int) float64 { return math.Sin(float64(i)) * 500 })
	fill(fluxA, func(i int) float64 { return math.Cos(float64(i)) })
	fill(fluxLo, func(i int) float64 { return math.Sin(float64(i) * 0.7) })
	for _, a := range []*Array{qtd0, qtd1, rp0, rp1, rm0, rm1} {
		fill(a, func(i int) float64 { return 0.5 + 0.4*math.Sin(float64(i)*0.3) })
	}

	stats := run(v, ne, func(ctx Ctx, e int) {
		for k := 0; k < nlev; k++ {
			i := e*nlev + k
			mf := ctx.Load(massFlux, i)
			a := ctx.Load(fluxA, i)
			lo := ctx.Load(fluxLo, i)
			q0 := ctx.Load(qtd0, i)
			q1 := ctx.Load(qtd1, i)
			var c float64
			if a >= 0 {
				c = math.Min(ctx.Load(rm0, i), ctx.Load(rp1, i))
			} else {
				c = math.Min(ctx.Load(rp0, i), ctx.Load(rm1, i))
			}
			ctx.Flop(6)
			ctx.Div(1, FP64) // ratio against new mass
			val := lo + c*a + 1e-6*mf*(q0-q1)
			storeRounded(ctx, out, i, val)
		}
	})
	return stats, checksum(out)
}

// computeRRR models the reciprocal-density diagnostic: seven arrays per
// (cell, level) plus pow/divide-heavy equation-of-state work.
func computeRRR(v Variant, m *mesh.Mesh, nlev int) (Stats, float64) {
	w := word(v, true)
	al := NewAllocator(v.Distribute)
	nc := m.NCells
	n := nc * nlev

	phiU := al.Alloc("phi_up", n, w)
	phiD := al.Alloc("phi_dn", n, w)
	dpi := al.Alloc("dpi", n, FP64)
	thm := al.Alloc("thetam", n, FP64)
	rrr := al.Alloc("rrr", n, w)
	pres := al.Alloc("pres", n, FP64)
	exner := al.Alloc("exner", n, FP64)

	fill(phiU, func(i int) float64 { return 2.0e4 + 100*float64(i%nlev) })
	fill(phiD, func(i int) float64 { return 1.9e4 + 100*float64(i%nlev) })
	fill(dpi, func(i int) float64 { return 3000 + 10*math.Sin(float64(i)) })
	fill(thm, func(i int) float64 { return 3000 * (300 + float64(i%nlev)) })

	stats := run(v, nc, func(ctx Ctx, c int) {
		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			dphi := ctx.Load(phiU, i) - ctx.Load(phiD, i)
			dp := ctx.Load(dpi, i)
			th := ctx.Load(thm, i)
			ctx.Flop(4)
			ctx.Div(2, word(v, true)) // dphi/dpi and theta = thm/dpi
			r := dphi / dp
			theta := th / dp
			// Charged as two elementary functions in working precision,
			// the demotion §3.4.2 allows. The dycore's computeRRR does
			// not: its equation of state is a table-driven log and exp
			// in FP64 under every mode (dycore.eos). Reconciling this
			// count with that kernel is ROADMAP item 2's.
			ctx.Elem(2, word(v, true))
			p := 1e5 * math.Pow(287.04*(dp/dphi)*theta/1e5, 1.4)
			storeRounded(ctx, rrr, i, r)
			ctx.Store(pres, i, p)
			ctx.Store(exner, i, math.Pow(p/1e5, 0.2857))
		}
	})
	return stats, checksum(rrr) + checksum(pres)*1e-9
}

// primalNormalFluxEdge models the edge reconstruction: indirect
// cell-indexed loads plus division/power-heavy blending — the kernel the
// paper singles out for its large mixed-precision gain (§4.6).
func primalNormalFluxEdge(v Variant, m *mesh.Mesh, nlev int) (Stats, float64) {
	w := word(v, true)
	al := NewAllocator(v.Distribute)
	ne := m.NEdges
	nc := m.NCells

	dpiC := al.Alloc("dpi_cell", nc*nlev, w)
	thC := al.Alloc("theta_cell", nc*nlev, w)
	u := al.Alloc("u_edge", ne*nlev, w)
	massE := al.Alloc("mass_edge", ne*nlev, w)
	thE := al.Alloc("theta_edge", ne*nlev, w)
	flux := al.Alloc("flux_edge", ne*nlev, FP64) // accumulated in DP

	fill(dpiC, func(i int) float64 { return 3000 + 20*math.Sin(float64(i)*0.11) })
	fill(thC, func(i int) float64 { return 300 + 30*math.Cos(float64(i)*0.07) })
	fill(u, func(i int) float64 { return 25 * math.Sin(float64(i)*0.13) })

	stats := run(v, ne, func(ctx Ctx, e int) {
		c0 := int(m.EdgeCell[e][0])
		c1 := int(m.EdgeCell[e][1])
		for k := 0; k < nlev; k++ {
			i0 := c0*nlev + k
			i1 := c1*nlev + k
			ie := e*nlev + k
			m0 := ctx.Load(dpiC, i0)
			m1 := ctx.Load(dpiC, i1)
			t0 := ctx.Load(thC, i0)
			t1 := ctx.Load(thC, i1)
			ue := ctx.Load(u, ie)
			au := math.Abs(ue)
			ctx.Flop(10)
			ctx.Div(3, w) // |u| blend weight, harmonic mean, theta blend
			ctx.Elem(1, w)
			wUp := au / (au + 10)
			hm := 2 * m0 * m1 / (m0 + m1)
			me := (1-wUp)*hm + wUp*m0
			te := (1-wUp)*0.5*(t0+t1) + wUp*t0*math.Exp(-1e-4*au)
			storeRounded(ctx, massE, ie, me)
			storeRounded(ctx, thE, ie, te)
			ctx.Store(flux, ie, me*ue)
		}
	})
	return stats, checksum(flux)
}

// gradKineticEnergy models the Fig. 4 example kernel: the kinetic-energy
// gradient tendency at edges.
func gradKineticEnergy(v Variant, m *mesh.Mesh, nlev int) (Stats, float64) {
	w := word(v, true)
	al := NewAllocator(v.Distribute)
	ne := m.NEdges
	nc := m.NCells

	ke := al.Alloc("kinetic_energy", nc*nlev, w)
	leng := al.Alloc("edt_leng", ne, FP64)
	tend := al.Alloc("tend_grad_ke", ne*nlev, w)

	fill(ke, func(i int) float64 { return 100 + 50*math.Sin(float64(i)*0.19) })
	fill(leng, func(i int) float64 { return 1e5 + 1e3*math.Cos(float64(i)) })

	stats := run(v, ne, func(ctx Ctx, e int) {
		c0 := int(m.EdgeCell[e][0])
		c1 := int(m.EdgeCell[e][1])
		l := ctx.Load(leng, e)
		for k := 0; k < nlev; k++ {
			k0 := ctx.Load(ke, c0*nlev+k)
			k1 := ctx.Load(ke, c1*nlev+k)
			ctx.Flop(3)
			ctx.Div(1, w)
			storeRounded(ctx, tend, e*nlev+k, -(k1-k0)/(6.37122e6*l))
		}
	})
	return stats, checksum(tend)
}

// divMassFlux models the cell divergence of the edge mass flux through
// the indirect CSR connectivity.
func divMassFlux(v Variant, m *mesh.Mesh, nlev int) (Stats, float64) {
	w := word(v, true)
	al := NewAllocator(v.Distribute)
	nc := m.NCells
	ne := m.NEdges

	flux := al.Alloc("flux", ne*nlev, w)
	dv := al.Alloc("dv_edge", ne, FP64)
	area := al.Alloc("cell_area", nc, FP64)
	div := al.Alloc("div", nc*nlev, w)

	fill(flux, func(i int) float64 { return 400 * math.Sin(float64(i)*0.23) })
	fill(dv, func(i int) float64 { return 9e4 })
	fill(area, func(i int) float64 { return 7e9 })

	stats := run(v, nc, func(ctx Ctx, c int) {
		inv := 1.0 / ctx.Load(area, c)
		ctx.Div(1, FP64)
		for kk := m.CellOff[c]; kk < m.CellOff[c+1]; kk++ {
			e := int(m.CellEdge[kk])
			sgn := float64(m.CellEdgeSign[kk])
			l := ctx.Load(dv, e)
			for k := 0; k < nlev; k++ {
				i := c*nlev + k
				f := ctx.Load(flux, e*nlev+k)
				cur := ctx.Load(div, i)
				ctx.Flop(4)
				storeRounded(ctx, div, i, cur-sgn*f*l*inv)
			}
		}
	})
	return stats, checksum(div)
}

// calcCoriolisTerm models the Coriolis tendency: few arrays, cheap
// arithmetic, no mixed-precision implementation — the kernel the paper
// shows benefiting least (§4.6).
func calcCoriolisTerm(v Variant, m *mesh.Mesh, nlev int) (Stats, float64) {
	al := NewAllocator(v.Distribute)
	ne := m.NEdges
	nv := m.NVerts

	zeta := al.Alloc("zeta", nv*nlev, FP64)
	vtan := al.Alloc("vtan", ne*nlev, FP64)
	tend := al.Alloc("tend_cor", ne*nlev, FP64)

	fill(zeta, func(i int) float64 { return 1e-5 * math.Sin(float64(i)*0.31) })
	fill(vtan, func(i int) float64 { return 15 * math.Cos(float64(i)*0.17) })

	stats := run(v, ne, func(ctx Ctx, e int) {
		v0 := int(m.EdgeVert[e][0])
		v1 := int(m.EdgeVert[e][1])
		f := 1.0e-4
		for k := 0; k < nlev; k++ {
			z := 0.5 * (ctx.Load(zeta, v0*nlev+k) + ctx.Load(zeta, v1*nlev+k))
			vt := ctx.Load(vtan, e*nlev+k)
			ctx.Flop(4)
			ctx.Store(tend, e*nlev+k, (f+z)*vt)
		}
	})
	return stats, checksum(tend)
}
