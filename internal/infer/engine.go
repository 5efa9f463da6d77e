package infer

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"gristgo/internal/precision"
	"gristgo/internal/telemetry"
)

// blockCols is the number of columns a worker pushes through the plan at
// once: large enough to amortize the im2col gather and keep the GEMM
// weight rows hot, small enough that a block's activations stay cache
// resident.
const blockCols = 16

// Stats accumulates the engine's observability counters: how many
// Forward calls ran, how many columns they processed, and the wall time
// they took (the per-step inference timing fed to core's timing report
// and to perfmodel's measured ML-suite cost).
type Stats struct {
	Calls   int
	Columns int
	Elapsed time.Duration
}

// arena holds one worker's preallocated scratch: ping-pong activation
// buffers, the im2col patch matrix, the Winograd input-transform and
// product tiles, and one save buffer per residual nesting level. Arenas
// are recycled through a pool, so steady-state inference is
// allocation-free.
type arena[T precision.Real] struct {
	a, b   []T
	col    []T
	wv, wm []T
	res    [][]T
}

func newArena[T precision.Real](p *Plan[T]) *arena[T] {
	ar := &arena[T]{
		a:   make([]T, blockCols*p.maxDim),
		b:   make([]T, blockCols*p.maxDim),
		col: make([]T, blockCols*p.maxColSz),
		wv:  make([]T, blockCols*p.maxWino),
		wm:  make([]T, blockCols*p.maxWino),
	}
	for d := 0; d < p.resDepth; d++ {
		ar.res = append(ar.res, make([]T, blockCols*p.maxDim))
	}
	return ar
}

// Engine executes a compiled plan over batches of columns. An Engine is
// safe for concurrent use: each Forward call draws worker arenas from a
// pool, and the plan itself is immutable.
type Engine[T precision.Real] struct {
	plan    *Plan[T]
	workers int

	pool sync.Pool

	mu    sync.Mutex
	stats Stats

	// Optional telemetry (guarded by mu): a flight-recorder span per
	// Forward plus batch counters and the block-occupancy gauge.
	rec      *telemetry.Recorder
	telRank  int32
	colsCtr  *telemetry.Counter
	callsCtr *telemetry.Counter
	occGauge *telemetry.Gauge
}

// NewEngine wraps a plan with a worker pool of the given width
// (0 or 1 serial, negative = GOMAXPROCS), mirroring the semantics of
// dycore.SetHostParallelism.
func NewEngine[T precision.Real](p *Plan[T], workers int) *Engine[T] {
	e := &Engine[T]{plan: p}
	e.pool.New = func() any { return newArena[T](p) }
	e.SetWorkers(workers)
	return e
}

// Plan returns the engine's compiled plan.
func (e *Engine[T]) Plan() *Plan[T] { return e.plan }

// SetWorkers reconfigures the worker-pool width (0 or 1 serial,
// negative = GOMAXPROCS).
func (e *Engine[T]) SetWorkers(n int) {
	if n < 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	e.mu.Lock()
	e.workers = n
	e.mu.Unlock()
}

// SetTelemetry attaches observability to the engine: each Forward emits
// an infer_forward span into rec (nil disables spans) and, when reg is
// non-nil, maintains grist_infer_columns_total, grist_infer_calls_total
// and the grist_infer_batch_occupancy gauge — the processed-columns
// share of the blockCols-padded batch, a direct read on how well batch
// sizes fill the GEMM blocks — all labeled model=name.
func (e *Engine[T]) SetTelemetry(rec *telemetry.Recorder, reg *telemetry.Registry, name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rec = rec
	if reg == nil {
		e.colsCtr, e.callsCtr, e.occGauge = nil, nil, nil
		return
	}
	e.colsCtr = reg.Counter("grist_infer_columns_total", "model", name)
	e.callsCtr = reg.Counter("grist_infer_calls_total", "model", name)
	e.occGauge = reg.Gauge("grist_infer_batch_occupancy", "model", name)
}

// DrainStats returns the accumulated counters and resets them.
func (e *Engine[T]) DrainStats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	e.stats = Stats{}
	return s
}

// Forward runs ncol columns through the plan: src holds ncol rows of
// InDim float64 features, dst receives ncol rows of OutDim float64
// outputs. The batch is sharded into contiguous chunks across the
// configured workers; each worker streams its chunk through the plan in
// blocks of blockCols columns using a pooled arena.
func (e *Engine[T]) Forward(dst, src []float64, ncol int) {
	p := e.plan
	if len(src) < ncol*p.InDim {
		panic(fmt.Sprintf("infer: src has %d values, need %d", len(src), ncol*p.InDim))
	}
	if len(dst) < ncol*p.OutDim {
		panic(fmt.Sprintf("infer: dst has %d values, need %d", len(dst), ncol*p.OutDim))
	}
	if ncol == 0 {
		return
	}
	start := time.Now()

	e.mu.Lock()
	w := e.workers
	rec, rank := e.rec, e.telRank
	colsCtr, callsCtr, occGauge := e.colsCtr, e.callsCtr, e.occGauge
	e.mu.Unlock()
	sp := rec.Begin("infer_forward", rank)
	if w > ncol {
		w = ncol
	}
	if w <= 1 {
		ar := e.pool.Get().(*arena[T])
		e.runChunk(ar, dst, src, 0, ncol)
		e.pool.Put(ar)
	} else {
		chunk := (ncol + w - 1) / w
		var wg sync.WaitGroup
		for lo := 0; lo < ncol; lo += chunk {
			hi := lo + chunk
			if hi > ncol {
				hi = ncol
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				ar := e.pool.Get().(*arena[T])
				e.runChunk(ar, dst, src, lo, hi)
				e.pool.Put(ar)
			}(lo, hi)
		}
		wg.Wait()
	}

	sp.End()
	if callsCtr != nil {
		callsCtr.Inc()
		colsCtr.Add(int64(ncol))
		padded := (ncol + blockCols - 1) / blockCols * blockCols
		occGauge.Set(float64(ncol) / float64(padded))
	}

	d := time.Since(start)
	e.mu.Lock()
	e.stats.Calls++
	e.stats.Columns += ncol
	e.stats.Elapsed += d
	e.mu.Unlock()
}

// runChunk streams columns [lo, hi) through the plan in blocks.
func (e *Engine[T]) runChunk(ar *arena[T], dst, src []float64, lo, hi int) {
	for b0 := lo; b0 < hi; b0 += blockCols {
		b1 := b0 + blockCols
		if b1 > hi {
			b1 = hi
		}
		e.runBlock(ar, dst, src, b0, b1)
	}
}

// runBlock pushes columns [lo, hi) (at most blockCols of them) through
// every stage of the plan. Activations live row-major in the arena's
// ping-pong buffers: cur[b*width + f] for block-local column b.
func (e *Engine[T]) runBlock(ar *arena[T], dst, src []float64, lo, hi int) {
	p := e.plan
	nb := hi - lo
	cur, nxt := ar.a, ar.b
	depth := 0
	for si := range p.stages {
		st := &p.stages[si]
		switch st.kind {
		case opInput:
			inputStage(st, cur, src, lo, nb)
		case opConv:
			if st.wino != nil {
				winoStage(st, ar.wv, ar.wm, cur, nxt, nb)
			} else {
				convStage(st, ar.col, cur, nxt, nb)
			}
			cur, nxt = nxt, cur
		case opDense:
			denseStage(st, cur, nxt, nb)
			cur, nxt = nxt, cur
		case opReLU:
			relu(cur[:nb*st.inDim])
		case opResPush:
			copy(ar.res[depth][:nb*st.inDim], cur[:nb*st.inDim])
			depth++
		case opResAdd:
			depth--
			save := ar.res[depth][:nb*st.inDim]
			x := cur[:nb*st.inDim]
			// y = saved + body(saved): the saved input comes first, as in
			// nn.Residual.Forward, so FP64 plans stay bit-identical.
			for i := range x {
				x[i] = save[i] + x[i]
			}
		case opOutput:
			outputStage(st, dst, cur, lo, nb)
		}
	}
}

// relu mirrors nn.ReLU exactly: anything not strictly positive (-0.0
// and NaN included) becomes +0.0. It selects on the bits, since a branch
// on the sign mispredicts: v > 0 exactly when bits(v)-1 < bits(+Inf).
func relu[T precision.Real](x []T) {
	switch x := any(x).(type) {
	case []float32:
		for i, v := range x {
			b := math.Float32bits(v)
			if b-1 >= 0x7f800000 {
				b = 0
			}
			x[i] = math.Float32frombits(b)
		}
	case []float64:
		for i, v := range x {
			b := math.Float64bits(v)
			if b-1 >= 0x7ff0000000000000 {
				b = 0
			}
			x[i] = math.Float64frombits(b)
		}
	}
}

// inputStage converts float64 source rows to the plan precision with the
// fused normalizer apply: z = (x-mean)/std clipped to +/-clip, dead
// features pinned to zero (mlphysics.Normalizer.Apply semantics).
func inputStage[T precision.Real](st *stage[T], cur []T, src []float64, lo, nb int) {
	dim := st.inDim
	for b := 0; b < nb; b++ {
		row := src[(lo+b)*dim : (lo+b+1)*dim]
		out := cur[b*dim : (b+1)*dim]
		if st.mean == nil {
			for i, v := range row {
				out[i] = T(v)
			}
			continue
		}
		for i, v := range row {
			if st.dead[i] {
				out[i] = 0
				continue
			}
			z := (T(v) - st.mean[i]) / st.std[i]
			if st.clip > 0 {
				if z > st.clip {
					z = st.clip
				} else if z < -st.clip {
					z = -st.clip
				}
			}
			out[i] = z
		}
	}
}

// outputStage applies the fused raw-output clamp and normalizer
// inversion, converting back to float64 destination rows.
func outputStage[T precision.Real](st *stage[T], dst []float64, cur []T, lo, nb int) {
	dim := st.inDim
	for b := 0; b < nb; b++ {
		x := cur[b*dim : (b+1)*dim]
		out := dst[(lo+b)*dim : (lo+b+1)*dim]
		for i, v := range x {
			if st.clamp > 0 {
				if v > st.clamp {
					v = st.clamp
				} else if v < -st.clamp {
					v = -st.clamp
				}
			}
			if st.mean != nil {
				if st.dead[i] {
					out[i] = float64(st.mean[i])
					continue
				}
				v = v*st.std[i] + st.mean[i]
			}
			out[i] = float64(v)
		}
	}
}

// convStage runs a same-padded 1-D convolution over a block: an im2col
// gather into the arena's patch matrix, then a register-blocked GEMM
// against the (compile-time quantized) weight matrix. The per-output
// accumulation order matches nn.Conv1D.Forward exactly (bias first, then
// j = i*K+k ascending), which keeps the FP64 plan bit-identical to the
// scalar oracle; padding taps contribute an exact ±0 and cannot perturb
// the sum.
func convStage[T precision.Real](st *stage[T], col, x, y []T, nb int) {
	l, k, inCh, outCh := st.l, st.k, st.inCh, st.outCh
	ck := inCh * k
	half := k / 2
	// im2col: col[(b*l+p)*ck + i*k+kk] = x[b][i*l + p+kk-half], 0 outside.
	for b := 0; b < nb; b++ {
		xb := x[b*st.inDim : (b+1)*st.inDim]
		for p := 0; p < l; p++ {
			row := col[(b*l+p)*ck : (b*l+p+1)*ck]
			for i := 0; i < inCh; i++ {
				xi := xb[i*l : (i+1)*l]
				for kk := 0; kk < k; kk++ {
					q := p + kk - half
					if q < 0 || q >= l {
						row[i*k+kk] = 0
					} else {
						row[i*k+kk] = xi[q]
					}
				}
			}
		}
	}
	// GEMM: y[b][o*l+p] = bias[o] + col[(b,p)] . w[o]. Output channels
	// are register-blocked four wide so each streamed patch row feeds
	// four accumulators; per-accumulator order stays sequential in j.
	for b := 0; b < nb; b++ {
		yb := y[b*st.outDim : (b+1)*st.outDim]
		colb := col[b*l*ck : (b+1)*l*ck]
		o := 0
		for ; o+4 <= outCh; o += 4 {
			w0 := st.w[o*ck : (o+1)*ck]
			w1 := st.w[(o+1)*ck : (o+2)*ck]
			w2 := st.w[(o+2)*ck : (o+3)*ck]
			w3 := st.w[(o+3)*ck : (o+4)*ck]
			for p := 0; p < l; p++ {
				row := colb[p*ck : (p+1)*ck]
				s0, s1, s2, s3 := st.b[o], st.b[o+1], st.b[o+2], st.b[o+3]
				for j, cv := range row {
					s0 += cv * w0[j]
					s1 += cv * w1[j]
					s2 += cv * w2[j]
					s3 += cv * w3[j]
				}
				yb[o*l+p] = s0
				yb[(o+1)*l+p] = s1
				yb[(o+2)*l+p] = s2
				yb[(o+3)*l+p] = s3
			}
		}
		for ; o < outCh; o++ {
			wo := st.w[o*ck : (o+1)*ck]
			for p := 0; p < l; p++ {
				row := colb[p*ck : (p+1)*ck]
				s := st.b[o]
				for j, cv := range row {
					s += cv * wo[j]
				}
				yb[o*l+p] = s
			}
		}
	}
}

// winoStage runs a K = 3 same-padded convolution over a block as
// Winograd F(4,3): a channel's column is cut into 4-output tiles, a
// tile's six inputs d (one halo value each side, zero outside) become
// V = Bᵀd, six GEMMs M_ξ = U_ξ·V_ξ contract the input channels against
// the filter transform, and y = Aᵀm + bias. It reassociates the sums, so
// only FP32 plans, bound by deviation rather than bitwise, compile to it.
func winoStage[T precision.Real](st *stage[T], v, m, x, y []T, nb int) {
	l, inCh, outCh := st.l, st.inCh, st.outCh
	nt := (l + 3) / 4
	nv := nb * nt * inCh
	v0, v1, v2, v3, v4, v5 := v[:nv], v[nv:2*nv], v[2*nv:3*nv], v[3*nv:4*nv], v[4*nv:5*nv], v[5*nv:6*nv]
	// Input transform: V_ξ[(b*nt+t)*inCh + i] = (Bᵀd)_ξ.
	for b := 0; b < nb; b++ {
		xb := x[b*st.inDim : (b+1)*st.inDim]
		for i := 0; i < inCh; i++ {
			xi := xb[i*l : (i+1)*l]
			for t := 0; t < nt; t++ {
				var d [6]T
				if p := 4*t - 1; p >= 0 && p+6 <= l {
					copy(d[:], xi[p:p+6])
				} else {
					for j := range d {
						if q := p + j; q >= 0 && q < l {
							d[j] = xi[q]
						}
					}
				}
				k := (b*nt+t)*inCh + i
				v0[k] = 4*d[0] - 5*d[2] + d[4]
				v1[k] = d[3] + d[4] - 4*(d[1]+d[2])
				v2[k] = 4*(d[1]-d[2]) + d[4] - d[3]
				v3[k] = 2*(d[3]-d[1]) + d[4] - d[2]
				v4[k] = 2*(d[1]-d[3]) + d[4] - d[2]
				v5[k] = 4*d[1] - 5*d[3] + d[5]
			}
		}
	}
	// Six GEMMs, output channels register-blocked four wide as in
	// convStage: m[(n*outCh+o)*6 + ξ] for tile n.
	for pt := 0; pt < 6; pt++ {
		vx := v[pt*nv : (pt+1)*nv]
		ux := st.wino[pt*outCh*inCh : (pt+1)*outCh*inCh]
		mx := m[pt:]
		o := 0
		for ; o+4 <= outCh; o += 4 {
			u0 := ux[o*inCh : (o+1)*inCh]
			u1 := ux[(o+1)*inCh : (o+2)*inCh]
			u2 := ux[(o+2)*inCh : (o+3)*inCh]
			u3 := ux[(o+3)*inCh : (o+4)*inCh]
			for n := 0; n < nb*nt; n++ {
				row := vx[n*inCh : (n+1)*inCh]
				var s0, s1, s2, s3 T
				for j, cv := range row {
					s0 += cv * u0[j]
					s1 += cv * u1[j]
					s2 += cv * u2[j]
					s3 += cv * u3[j]
				}
				mo := mx[(n*outCh+o)*6:]
				mo[0], mo[6], mo[12], mo[18] = s0, s1, s2, s3
			}
		}
		for ; o < outCh; o++ {
			uo := ux[o*inCh : (o+1)*inCh]
			for n := 0; n < nb*nt; n++ {
				var s T
				for j, cv := range vx[n*inCh : (n+1)*inCh] {
					s += cv * uo[j]
				}
				mx[(n*outCh+o)*6] = s
			}
		}
	}
	// Output transform plus bias; the last tile of a column may be partial.
	for b := 0; b < nb; b++ {
		yb := y[b*st.outDim : (b+1)*st.outDim]
		for o := 0; o < outCh; o++ {
			yo, bias := yb[o*l:(o+1)*l], st.b[o]
			for t := 0; t < nt; t++ {
				mt := m[((b*nt+t)*outCh+o)*6:][:6]
				sp, sm := mt[1]+mt[2], mt[1]-mt[2]
				dp, dm := mt[3]+mt[4], mt[3]-mt[4]
				out := [4]T{mt[0] + sp + dp, sm + 2*dm, sp + 4*dp, sm + 8*dm + mt[5]}
				for r, p := 0, 4*t; r < 4 && p < l; r, p = r+1, p+1 {
					yo[p] = bias + out[r]
				}
			}
		}
	}
}

// denseStage runs a fully-connected layer over a block with the same
// four-wide output register blocking as convStage. Accumulation order
// per output matches nn.Dense.Forward (bias first, inputs ascending).
func denseStage[T precision.Real](st *stage[T], x, y []T, nb int) {
	in, out := st.inDim, st.outDim
	for b := 0; b < nb; b++ {
		xb := x[b*in : (b+1)*in]
		yb := y[b*out : (b+1)*out]
		o := 0
		for ; o+4 <= out; o += 4 {
			w0 := st.w[o*in : (o+1)*in]
			w1 := st.w[(o+1)*in : (o+2)*in]
			w2 := st.w[(o+2)*in : (o+3)*in]
			w3 := st.w[(o+3)*in : (o+4)*in]
			s0, s1, s2, s3 := st.b[o], st.b[o+1], st.b[o+2], st.b[o+3]
			for j, xv := range xb {
				s0 += xv * w0[j]
				s1 += xv * w1[j]
				s2 += xv * w2[j]
				s3 += xv * w3[j]
			}
			yb[o], yb[o+1], yb[o+2], yb[o+3] = s0, s1, s2, s3
		}
		for ; o < out; o++ {
			wo := st.w[o*in : (o+1)*in]
			s := st.b[o]
			for j, xv := range xb {
				s += xv * wo[j]
			}
			yb[o] = s
		}
	}
}
