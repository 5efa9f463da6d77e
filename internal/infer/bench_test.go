package infer

import (
	"math/rand"
	"testing"

	"gristgo/internal/nn"
	"gristgo/internal/precision"
)

// benchForward times one Forward of the tendency CNN and one of the
// radiation MLP over ncol columns, single-worker, at precision T.
func benchForward[T precision.Real](b *testing.B, cnn, mlp nn.Module, ncol int) {
	rng := rand.New(rand.NewSource(3))
	engs := []*Engine[T]{
		NewEngine(MustCompile[T](cnn, Options{}), 1),
		NewEngine(MustCompile[T](mlp, Options{}), 1),
	}
	srcs, dsts := make([][]float64, 2), make([][]float64, 2)
	for k, e := range engs {
		srcs[k] = make([]float64, ncol*e.Plan().InDim)
		for i := range srcs[k] {
			srcs[k][i] = rng.NormFloat64()
		}
		dsts[k] = make([]float64, ncol*e.Plan().OutDim)
		e.Forward(dsts[k], srcs[k], ncol) // fill the arena pool
	}
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for k, e := range engs {
			e.Forward(dsts[k], srcs[k], ncol)
		}
	}
	b.ReportMetric(float64(b.N*ncol)/b.Elapsed().Seconds(), "cols/s")
}

// BenchmarkForwardG5L30 runs the ML physics networks at the repository
// benchmark's architecture (ResUnitCNN 5 -> 16 x 5 units -> 2, K = 3,
// L = 30; ResMLP 62 -> 48 x 7 -> 3) over 2,048 columns, FP64 then FP32.
// `make profile-infer` runs it under -cpuprofile.
func BenchmarkForwardG5L30(b *testing.B) {
	const nlev, ncol = 30, 2048
	rng := rand.New(rand.NewSource(1))
	cnn := nn.NewResUnitCNN(5, 16, 2, nlev, 5, 3, rng)
	mlp := nn.NewResMLP(2*nlev+2, 48, 3, 7, rng)
	b.Run("FP64", func(b *testing.B) { benchForward[float64](b, cnn, mlp, ncol) })
	b.Run("FP32", func(b *testing.B) { benchForward[float32](b, cnn, mlp, ncol) })
}
