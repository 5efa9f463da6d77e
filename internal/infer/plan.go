// Package infer is the batched ML inference engine behind the physics
// suite's hot path. The paper's headline performance result rests on the
// ML physics suite running at 74-84% of peak while RRTMG-style code sits
// near 6% (§4.7); reaching that regime requires exactly the machinery a
// production inference stack carries, and this package provides it:
//
//   - Compile flattens an nn.Sequential (Conv1D / Dense / ReLU /
//     Residual) into a linear execution plan with the normalizer apply,
//     output clamp and inversion fused in as plan stages;
//   - the plan is generic over precision.Real, so the same compilation
//     path emits an FP64 reference plan and an FP32 plan whose weights
//     are quantized once at compile time — the §3.4 mixed-precision
//     theme extended from the dycore into the NN stack;
//   - Engine executes a plan over many columns at once: im2col +
//     register-blocked GEMM for the convolutions, arena-style
//     preallocated activation buffers reused across steps, and a worker
//     pool that shards the column batch across host goroutines;
//   - an FP32 plan runs every K = 3 convolution as Winograd F(4,3)
//     instead: 6 multiplies per 4 outputs and channel pair where the
//     im2col GEMM takes 12, and no patch matrix.
//
// The FP64 plan is bit-identical to the scalar nn.Module.Forward path
// (same accumulation order everywhere), so the scalar path remains the
// parity oracle; the FP32 plan, which reassociates its K = 3 sums, is
// validated like the mixed-precision dycore, by relative-L2 deviation
// from the FP64 plan.
package infer

import (
	"fmt"

	"gristgo/internal/nn"
	"gristgo/internal/precision"
)

// NormSpec carries per-feature normalization statistics into the plan
// (the mlphysics.Normalizer contract: dead features normalize to zero
// and invert to their training mean).
type NormSpec struct {
	Mean, Std []float64
	Dead      []bool
}

// opKind enumerates the fused stage types of a compiled plan.
type opKind uint8

const (
	opInput   opKind = iota // convert float64 rows to T, optional normalize+clip
	opConv                  // 1-D same-padded convolution (im2col + GEMM, or Winograd)
	opDense                 // fully-connected GEMM
	opReLU                  // elementwise, in place
	opResPush               // save activations for a pending skip connection
	opResAdd                // add the saved activations back in
	opOutput                // optional clamp + inversion, convert T to float64
)

// stage is one node of the flat execution plan.
type stage[T precision.Real] struct {
	kind          opKind
	inDim, outDim int
	inCh, outCh   int // opConv
	k, l          int // opConv kernel width / column length
	w, b          []T // opConv / opDense parameters (quantized at compile)
	wino          []T // FP32 opConv with K = 3: Winograd filter transform U[ξ][o][i]
	mean, std     []T // opInput / opOutput normalization
	dead          []bool
	clip, clamp   T // opInput z-clip; opOutput raw clamp (0 disables)
}

// Plan is a compiled, immutable execution plan. Plans hold quantized
// copies of the network weights and are safe for concurrent use by any
// number of engines and workers.
type Plan[T precision.Real] struct {
	stages []stage[T]

	// InDim and OutDim are the per-column feature widths of the plan's
	// float64 input and output rows.
	InDim, OutDim int

	maxDim   int // widest activation vector across stages
	maxColSz int // largest per-column im2col buffer (L*inCh*K) of any conv
	maxWino  int // largest per-column Winograd buffer (6 * tiles * channels)
	resDepth int // deepest residual nesting
}

// Options configures plan compilation.
type Options struct {
	// In, when set, fuses the input normalization (z = (x-mean)/std,
	// clipped to +/-InClip, dead features pinned to zero) into the plan.
	In *NormSpec
	// InClip bounds the normalized inputs (0 disables clipping).
	InClip float64
	// Out, when set, fuses the output inversion (y = z*std + mean, dead
	// features pinned to their mean) into the plan.
	Out *NormSpec
	// OutClamp bounds the raw network outputs before inversion
	// (0 disables) — the ±6σ stability clamp of §3.2.3.
	OutClamp float64
}

// toT quantizes a float64 slice to the plan precision. For T = float64
// this is an exact copy; for T = float32 it is the one-time weight
// quantization of the compiled plan.
func toT[T precision.Real](xs []float64) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = T(x)
	}
	return out
}

// Compile flattens a module tree into an execution plan at precision T.
// Supported modules: nn.Sequential, nn.Conv1D, nn.Dense, nn.ReLU and
// nn.Residual (with any supported body). The module's weights are copied
// (and quantized, for T = float32), so the plan stays valid if the
// module trains on.
func Compile[T precision.Real](m nn.Module, opt Options) (*Plan[T], error) {
	p := &Plan[T]{InDim: -1}
	cur := -1 // current feature width; -1 until known
	if opt.In != nil {
		cur = len(opt.In.Mean)
		p.stages = append(p.stages, stage[T]{
			kind: opInput, inDim: cur, outDim: cur,
			mean: toT[T](opt.In.Mean), std: toT[T](opt.In.Std),
			dead: append([]bool(nil), opt.In.Dead...),
			clip: T(opt.InClip),
		})
	}
	depth := 0
	var flatten func(mod nn.Module) error
	flatten = func(mod nn.Module) error {
		switch v := mod.(type) {
		case *nn.Sequential:
			for _, l := range v.Layers {
				if err := flatten(l); err != nil {
					return err
				}
			}
		case *nn.Residual:
			if cur < 0 {
				return fmt.Errorf("infer: Residual before any width-defining layer")
			}
			p.stages = append(p.stages, stage[T]{kind: opResPush, inDim: cur, outDim: cur})
			depth++
			if depth > p.resDepth {
				p.resDepth = depth
			}
			saved := cur
			if err := flatten(v.Body); err != nil {
				return err
			}
			if cur != saved {
				return fmt.Errorf("infer: Residual body changed width %d -> %d", saved, cur)
			}
			depth--
			p.stages = append(p.stages, stage[T]{kind: opResAdd, inDim: cur, outDim: cur})
		case *nn.Conv1D:
			in, out := v.InCh*v.L, v.OutCh*v.L
			if cur >= 0 && cur != in {
				return fmt.Errorf("infer: Conv1D expects width %d, plan carries %d", in, cur)
			}
			st := stage[T]{
				kind: opConv, inDim: in, outDim: out,
				inCh: v.InCh, outCh: v.OutCh, k: v.K, l: v.L,
				w: toT[T](v.Weight.W), b: toT[T](v.Bias.W),
			}
			if _, fp32 := any(T(0)).(float32); fp32 && v.K == 3 {
				st.wino = toT[T](winoFilter(v.Weight.W, v.InCh, v.OutCh))
				if sz := 6 * ((v.L + 3) / 4) * max(v.InCh, v.OutCh); sz > p.maxWino {
					p.maxWino = sz
				}
			} else if sz := v.L * v.InCh * v.K; sz > p.maxColSz {
				p.maxColSz = sz
			}
			p.stages = append(p.stages, st)
			cur = out
		case *nn.Dense:
			if cur >= 0 && cur != v.In {
				return fmt.Errorf("infer: Dense expects width %d, plan carries %d", v.In, cur)
			}
			p.stages = append(p.stages, stage[T]{
				kind: opDense, inDim: v.In, outDim: v.Out,
				w: toT[T](v.Weight.W), b: toT[T](v.Bias.W),
			})
			cur = v.Out
		case *nn.ReLU:
			if cur < 0 {
				return fmt.Errorf("infer: ReLU before any width-defining layer")
			}
			p.stages = append(p.stages, stage[T]{kind: opReLU, inDim: cur, outDim: cur})
		default:
			return fmt.Errorf("infer: unsupported module type %T", mod)
		}
		return nil
	}
	if err := flatten(m); err != nil {
		return nil, err
	}
	if cur < 0 {
		return nil, fmt.Errorf("infer: plan has no width-defining layer")
	}
	if opt.In == nil {
		// No fused normalizer: still need the float64 -> T load stage.
		first := p.stages[0].inDim
		p.stages = append([]stage[T]{{kind: opInput, inDim: first, outDim: first}}, p.stages...)
	}
	out := stage[T]{kind: opOutput, inDim: cur, outDim: cur, clamp: T(opt.OutClamp)}
	if opt.Out != nil {
		if len(opt.Out.Mean) != cur {
			return nil, fmt.Errorf("infer: output normalizer width %d != plan output %d",
				len(opt.Out.Mean), cur)
		}
		out.mean, out.std = toT[T](opt.Out.Mean), toT[T](opt.Out.Std)
		out.dead = append([]bool(nil), opt.Out.Dead...)
	}
	p.stages = append(p.stages, out)
	// Resolve the plan's I/O widths and the widest activation buffer.
	p.InDim = p.stages[0].inDim
	p.OutDim = cur
	for _, st := range p.stages {
		if st.inDim > p.maxDim {
			p.maxDim = st.inDim
		}
		if st.outDim > p.maxDim {
			p.maxDim = st.outDim
		}
	}
	return p, nil
}

// MustCompile is Compile panicking on error, for architectures known to
// be supported (the mlphysics CNN and MLP).
func MustCompile[T precision.Real](m nn.Module, opt Options) *Plan[T] {
	p, err := Compile[T](m, opt)
	if err != nil {
		panic(err)
	}
	return p
}

// NumStages reports the length of the flat plan (for tests/diagnostics).
func (p *Plan[T]) NumStages() int { return len(p.stages) }

// winoG is the filter transform G of Winograd's minimal filtering
// algorithm F(4,3) (Lavin & Gray, arXiv 1509.09308): six points 0, ±1,
// ±2 and ∞, so a 3-tap filter and a 6-value input tile give 4 outputs in
// 6 multiplies where the direct form takes 12.
var winoG = [6][3]float64{
	{1.0 / 4, 0, 0},
	{-1.0 / 6, -1.0 / 6, -1.0 / 6},
	{-1.0 / 6, 1.0 / 6, -1.0 / 6},
	{1.0 / 24, 1.0 / 12, 1.0 / 6},
	{1.0 / 24, -1.0 / 12, 1.0 / 6},
	{0, 0, 1},
}

// winoFilter applies G to every (output, input) channel filter of a K = 3
// Conv1D weight matrix w[o][i][k], in float64, laid out U[ξ][o][i] for
// the six per-point GEMMs of winoStage.
func winoFilter(w []float64, inCh, outCh int) []float64 {
	u := make([]float64, 6*outCh*inCh)
	for o := 0; o < outCh; o++ {
		for i := 0; i < inCh; i++ {
			g := w[(o*inCh+i)*3 : (o*inCh+i+1)*3]
			for x, row := range winoG {
				u[(x*outCh+o)*inCh+i] = row[0]*g[0] + row[1]*g[1] + row[2]*g[2]
			}
		}
	}
	return u
}
