// Ablation benchmarks for the design choices the paper motivates:
// the address-distributing allocator (§3.3.3), BFS index reordering
// (§3.1.3), mixed precision (§3.4), aggregated halo exchange (§3.1.3),
// and the ML suite's achieved-FLOPS advantage (§4.7). Each benchmark
// reports the with/without metrics side by side.
package main

import (
	"testing"

	"gristgo/internal/comm"
	"gristgo/internal/mesh"
	"gristgo/internal/partition"
	"gristgo/internal/perfmodel"
	"gristgo/internal/precision"
	"gristgo/internal/sunway"
)

// BenchmarkAblationDSTAllocator contrasts the many-array limiter kernel
// with and without the address-distributing pool allocator.
func BenchmarkAblationDSTAllocator(b *testing.B) {
	m := mesh.New(3)
	var limiter sunway.Kernel
	for _, k := range sunway.Kernels() {
		if k.Name == "tracer_transport_hori_flux_limiter" {
			limiter = k
		}
	}
	var plain, dst sunway.Stats
	for i := 0; i < b.N; i++ {
		plain, _ = limiter.Run(sunway.Variant{OnCPE: true}, m, 16)
		dst, _ = limiter.Run(sunway.Variant{OnCPE: true, Distribute: true}, m, 16)
	}
	b.ReportMetric(plain.HitRate(), "hit_rate_plain")
	b.ReportMetric(dst.HitRate(), "hit_rate_dst")
	b.ReportMetric(plain.Seconds/dst.Seconds, "dst_speedup")
}

// BenchmarkAblationBFSReordering contrasts the simulated LDCache hit
// rate of the indirect divergence kernel on the raw subdivision-ordered
// mesh vs the BFS-reordered mesh (§3.1.3's locality claim).
func BenchmarkAblationBFSReordering(b *testing.B) {
	raw := mesh.New(4)
	bfs := raw.ReorderBFS()
	var div sunway.Kernel
	for _, k := range sunway.Kernels() {
		if k.Name == "div_mass_flux" {
			div = k
		}
	}
	var sRaw, sBFS sunway.Stats
	for i := 0; i < b.N; i++ {
		sRaw, _ = div.Run(sunway.Variant{OnCPE: true, Distribute: true}, raw, 8)
		sBFS, _ = div.Run(sunway.Variant{OnCPE: true, Distribute: true}, bfs, 8)
	}
	b.ReportMetric(sRaw.HitRate(), "hit_rate_raw")
	b.ReportMetric(sBFS.HitRate(), "hit_rate_bfs")
	if sBFS.HitRate() < sRaw.HitRate() {
		b.Log("warning: BFS ordering did not improve the hit rate on this workload")
	}
}

// BenchmarkAblationMixedPrecision contrasts DP and MIX dycore speed in
// the machine model at the production point.
func BenchmarkAblationMixedPrecision(b *testing.B) {
	m := perfmodel.NewMachine()
	var dp, mx perfmodel.Result
	for i := 0; i < b.N; i++ {
		dp = m.Predict(perfmodel.RunConfig{Level: 12, Layers: 30, NCG: 524288,
			Scheme: perfmodel.Scheme{Mode: precision.DP, ML: true}})
		mx = m.Predict(perfmodel.RunConfig{Level: 12, Layers: 30, NCG: 524288,
			Scheme: perfmodel.Scheme{Mode: precision.Mixed, ML: true}})
	}
	b.ReportMetric(dp.SDPD, "SDPD_DP")
	b.ReportMetric(mx.SDPD, "SDPD_MIX")
	b.ReportMetric(mx.SDPD/dp.SDPD, "mix_speedup")
}

// BenchmarkAblationMLEfficiency sweeps the achieved-FLOPS fraction of
// the ML suite: the paper's 74-84% band vs a hypothetical RRTMG-like 6%
// shows why "more FLOPs but better efficiency" wins (§4.7).
func BenchmarkAblationMLEfficiency(b *testing.B) {
	var atPaper, atLow float64
	for i := 0; i < b.N; i++ {
		m := perfmodel.NewMachine()
		rc := perfmodel.RunConfig{Level: 12, Layers: 30, NCG: 524288,
			Scheme: perfmodel.Scheme{Mode: precision.Mixed, ML: true}}
		m.MLEff = 0.79
		atPaper = m.Predict(rc).SDPD
		m.MLEff = 0.06
		atLow = m.Predict(rc).SDPD
	}
	b.ReportMetric(atPaper, "SDPD_eff79")
	b.ReportMetric(atLow, "SDPD_eff06")
}

// BenchmarkAblationHaloAggregation measures the real wall-time of the
// linked-list aggregated halo exchange (all variables, one message per
// peer) against one exchange call per variable (§3.1.3).
func BenchmarkAblationHaloAggregation(b *testing.B) {
	m := mesh.New(4)
	const nparts = 4
	const nvars = 8
	d := partition.MustDecompose(m, nparts, 3)

	run := func(aggregated bool) {
		comm.Run(nparts, func(r *comm.Rank) {
			dom := comm.NewDomain(m, d, r.ID())
			fields := make([]*comm.Field, nvars)
			for i := range fields {
				fields[i] = dom.NewField("v", 4)
			}
			if aggregated {
				h := comm.NewHaloExchanger(dom, r)
				for _, f := range fields {
					h.Register(f)
				}
				h.Exchange()
			} else {
				for _, f := range fields {
					h := comm.NewHaloExchanger(dom, r)
					h.Register(f)
					h.Exchange()
				}
			}
		})
	}

	b.Run("aggregated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(true)
		}
	})
	b.Run("per-variable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(false)
		}
	})
}
