package tracer

import (
	"fmt"
	"math"
	"testing"

	"gristgo/internal/mesh"
	"gristgo/internal/precision"
)

// BenchmarkTransportStepG4L20 times one transport step of all six species
// at the coupled benchmark's size (G4 x 20, BFS order), DP and MIX, serial
// and on 2 host workers: the kernel under the coupled rung's
// tracer.transport_ms. Each species starts as a cosine bell of radius 0.5
// rad (Williamson et al. 1992, case 1), zero outside it: a Gaussian's
// tail would put float32 subnormals, which the coupled model's tracers do
// not hold, into the MIX rows. `make profile-tracer` profiles the serial
// rows.
func BenchmarkTransportStepG4L20(b *testing.B) {
	const nlev = 20
	m, dpi, flux := setupOn(mesh.New(4).ReorderBFS(), nlev)
	for _, mode := range []precision.Mode{precision.DP, precision.Mixed} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", mode, workers), func(b *testing.B) {
				f := NewField(m, nlev, dpi)
				for sp := range f.Q {
					center := mesh.FromLatLon(0.3*float64(sp)-0.6, float64(sp))
					for c := range m.NCells {
						if d := mesh.ArcLength(m.CellPos[c], center); d < 0.5 {
							for k := range nlev {
								f.SetMixingRatio(Species(sp), c, k, 0.005*(1+math.Cos(math.Pi*d/0.5)))
							}
						}
					}
				}
				tr := New(m, nlev, mode)
				tr.SetHostParallelism(workers)
				tr.Step(f, flux, 300)
				b.ResetTimer()
				for range b.N {
					tr.Step(f, flux, 300)
				}
				b.ReportMetric(float64(m.NCells*nlev*b.N)/b.Elapsed().Seconds(), "cell-levels/s")
			})
		}
	}
}
