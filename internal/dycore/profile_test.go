package dycore

import (
	"testing"

	"gristgo/internal/precision"
)

// BenchmarkSerialStepG5L30 is the serial step at the size of the
// benchmark's dyn_dp_g5l30_r2 workload (G5 x 30, baroclinic wave, 90 s),
// one sub-benchmark per precision mode. `make profile-step` runs it under
// -cpuprofile; ROADMAP's per-kernel profile table is its pprof -top.
func BenchmarkSerialStepG5L30(b *testing.B) {
	m := testMesh(b, 5)
	for _, mode := range []precision.Mode{precision.DP, precision.Mixed} {
		b.Run(mode.String(), func(b *testing.B) {
			eng := New(m, 30, mode)
			eng.State().InitIdealized(CaseBaroclinicWave)
			eng.Step(90)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step(90)
			}
			b.ReportMetric(float64(m.NCells*30*b.N)/b.Elapsed().Seconds(), "cell-levels/s")
		})
	}
}
