// Repository-level benchmarks: one per table and figure of the paper's
// evaluation section (the per-experiment index is in DESIGN.md). Each
// benchmark regenerates its experiment and reports domain metrics through
// b.ReportMetric, so `go test -bench=. -benchmem` reproduces the paper's
// headline rows. Expensive model-integration experiments (Fig. 7, Fig. 8)
// run once per benchmark invocation regardless of b.N.
package main

import (
	"testing"

	"gristgo/internal/experiments"
	"gristgo/internal/mesh"
	"gristgo/internal/perfmodel"
	"gristgo/internal/precision"
	"gristgo/internal/synthclim"
)

// BenchmarkTable1TrainingData regenerates the Table 1 training periods
// and their climate indices.
func BenchmarkTable1TrainingData(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1Rows()
		if len(rows) != 5 {
			b.Fatal("Table 1 shape")
		}
	}
	b.ReportMetric(float64(synthclim.TotalDays()), "training_days")
	b.ReportMetric(4, "periods")
}

// BenchmarkTable2GridCensus regenerates the grid census, verifying the
// closed forms against a really generated mesh each iteration.
func BenchmarkTable2GridCensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := mesh.New(4)
		c := mesh.Census(4)
		if int64(m.NCells) != c.Cells {
			b.Fatal("census mismatch")
		}
	}
	g12 := mesh.Census(12)
	b.ReportMetric(float64(g12.Cells), "G12_cells")
	b.ReportMetric(float64(g12.Edges), "G12_edges")
}

// BenchmarkTable3Schemes enumerates the four scheme configurations.
func BenchmarkTable3Schemes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table3Rows()) != 5 {
			b.Fatal("Table 3 shape")
		}
	}
	b.ReportMetric(4, "schemes")
}

// BenchmarkFig2Landscape regenerates the GSRM-efforts landscape,
// including this work's two model-predicted points.
func BenchmarkFig2Landscape(b *testing.B) {
	var ours []perfmodel.Effort
	for i := 0; i < b.N; i++ {
		ours = perfmodel.Fig2Ours(perfmodel.NewMachine())
	}
	b.ReportMetric(ours[0].SYPD, "SYPD_3km")
	b.ReportMetric(ours[1].SYPD, "SYPD_1km")
}

// BenchmarkFig7Doksuri runs the two-resolution Typhoon Doksuri case and
// reports the spatial correlations of Fig. 7. One full case per
// benchmark invocation (~2 minutes); run with -benchtime=1x.
func BenchmarkFig7Doksuri(b *testing.B) {
	if testing.Short() {
		b.Skip("model integration")
	}
	cfg := experiments.DefaultFig7Config()
	cfg.Hours = 6 // benchmark-sized
	var r experiments.Fig7Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig7(cfg)
		b.StopTimer()
		if r.CorrFine <= r.CorrCoarse {
			b.Logf("warning: fine member did not beat coarse (%.3f vs %.3f)", r.CorrFine, r.CorrCoarse)
		}
		b.StartTimer()
	}
	b.ReportMetric(r.CorrCoarse, "corr_coarse")
	b.ReportMetric(r.CorrFine, "corr_fine")
}

// BenchmarkFig8MLPhysics runs the ML-physics pipeline (train + coupled
// comparison) and reports the Fig. 8 metrics. Run with -benchtime=1x.
func BenchmarkFig8MLPhysics(b *testing.B) {
	if testing.Short() {
		b.Skip("training pipeline")
	}
	cfg := experiments.DefaultFig8Config()
	cfg.TrainDays = 1
	cfg.Train.Epochs = 15
	var r experiments.Fig8Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig8(cfg)
	}
	b.ReportMetric(r.TendTestLoss, "cnn_loss")
	b.ReportMetric(r.CorrTrainRes, "corr_train_res")
	b.ReportMetric(r.CorrApplyRes, "corr_transfer_res")
	if !r.Stable {
		b.Log("warning: ML-coupled run unstable in benchmark configuration")
	}
}

// BenchmarkFig9Kernels runs the CPE kernel study on the simulated
// SW26010P and reports the best speedups of the two kernels the paper
// discusses most.
func BenchmarkFig9Kernels(b *testing.B) {
	var r experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig9(3, 16)
	}
	for k, name := range r.Kernels {
		if name == "primal_normal_flux_edge" {
			b.ReportMetric(r.Speedup[k][len(r.Speedup[k])-1], "primal_flux_speedup")
		}
		if name == "calc_coriolis_term" {
			b.ReportMetric(r.Speedup[k][len(r.Speedup[k])-1], "coriolis_speedup")
		}
	}
}

// BenchmarkFig10WeakScaling evaluates the weak-scaling model and reports
// the paper's communication-share endpoints (19% -> 37%).
func BenchmarkFig10WeakScaling(b *testing.B) {
	m := perfmodel.NewMachine()
	var pts []perfmodel.ScalePoint
	for i := 0; i < b.N; i++ {
		pts = m.WeakScaling(perfmodel.Scheme{Mode: precision.Mixed, ML: true})
	}
	b.ReportMetric(100*pts[0].R.CommShare, "comm_pct_128")
	b.ReportMetric(100*pts[len(pts)-1].R.CommShare, "comm_pct_524288")
	b.ReportMetric(pts[len(pts)-1].EffPct, "weak_eff_pct")
}

// BenchmarkFig11StrongScaling evaluates the strong-scaling model and
// reports the paper's headline SDPD anchors (491 G11S / 181 G12).
func BenchmarkFig11StrongScaling(b *testing.B) {
	m := perfmodel.NewMachine()
	var g12, g11 perfmodel.Result
	for i := 0; i < b.N; i++ {
		s := perfmodel.Scheme{Mode: precision.Mixed, ML: true}
		g12 = m.Predict(perfmodel.RunConfig{Level: 12, Layers: 30, NCG: 524288, Scheme: s, Steps: perfmodel.G12Steps()})
		g11 = m.Predict(perfmodel.RunConfig{Level: 11, Layers: 30, NCG: 524288, Scheme: s, Steps: perfmodel.G11SSteps()})
	}
	b.ReportMetric(g12.SDPD, "G12_SDPD")
	b.ReportMetric(g11.SDPD, "G11S_SDPD")
	b.ReportMetric(g12.SYPD, "G12_SYPD")
}
