package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"time"

	"gristgo/internal/comm"
	"gristgo/internal/core"
	"gristgo/internal/dycore"
	"gristgo/internal/infer"
	"gristgo/internal/mesh"
	"gristgo/internal/mlphysics"
	"gristgo/internal/physics"
	"gristgo/internal/precision"
	"gristgo/internal/serve"
	"gristgo/internal/telemetry"
)

// ladderMetrics are the per-layer numbers of the traced run, one rung
// per module, each taken from outside by timing calls into exported
// functions. They do not depend on which workload was selected. The
// layer is the part of the name before the dot. README.md lists which
// end-to-end metric each is expected to move, and on which workload.
var ladderMetrics = []metricDef{
	{Name: "mesh.build_g5_ms", Unit: "ms"},
	{Name: "mesh.build_g6_ms", Unit: "ms"},
	{Name: "partition.decompose_g5_r2_ms", Unit: "ms"},
	{Name: "partition.halo_cells_g5_r2", Unit: "cells", Count: true},
	{Name: "dycore.step_dp_ms_p50", Unit: "ms"},
	{Name: "dycore.step_mix_ms_p50", Unit: "ms"},
	{Name: "dycore.mix_over_dp", Unit: "ratio"},
	{Name: "dycore.step_allocs", Unit: "1/step", Count: true},
	{Name: "dycore.step_alloc_kb", Unit: "kB/step"},
	{Name: "dycore.state_mb", Unit: "MB", Count: true},
	{Name: "dycore.hostpar_speedup_w2", Unit: "ratio", HigherBetter: true},
	{Name: "comm.halo_round_us_p50", Unit: "us"},
	{Name: "comm.halo_pack_us", Unit: "us/round"},
	{Name: "comm.halo_wait_us", Unit: "us/round"},
	{Name: "comm.halo_unpack_us", Unit: "us/round"},
	{Name: "comm.halo_bytes_per_step", Unit: "B", Count: true},
	{Name: "comm.halo_rounds_per_step", Unit: "count", Count: true},
	{Name: "comm.wait_share", Unit: "ratio"},
	{Name: "core.dist_setup_ms", Unit: "ms"},
	{Name: "core.dist_step_ms", Unit: "ms"},
	{Name: "core.dist_par_eff", Unit: "ratio", HigherBetter: true},
	{Name: "core.dist_alloc_mb", Unit: "MB"},
	{Name: "core.coupled_dynamics_ms", Unit: "ms/step"},
	{Name: "tracer.transport_ms", Unit: "ms/step"},
	{Name: "mlphysics.coupled_compute_ms", Unit: "ms/step"},
	{Name: "core.coupling_ms", Unit: "ms/step"},
	{Name: "mlphysics.compute_ms_p50", Unit: "ms"},
	{Name: "mlphysics.scalar_cols_per_s", Unit: "1/s", HigherBetter: true},
	{Name: "infer.fwd_fp64_cols_per_s", Unit: "1/s", HigherBetter: true},
	{Name: "infer.fwd_fp32_cols_per_s", Unit: "1/s", HigherBetter: true},
	{Name: "infer.fp32_over_fp64", Unit: "ratio", HigherBetter: true},
	{Name: "infer.fwd_allocs", Unit: "1/call", Count: true},
	{Name: "core.write_shard_ms_p50", Unit: "ms"},
	{Name: "core.write_shard_mb_per_s", Unit: "MB/s", HigherBetter: true},
	{Name: "core.commit_ms_p50", Unit: "ms"},
	{Name: "core.epoch_bytes", Unit: "B", Count: true},
	{Name: "core.epoch_files", Unit: "count", Count: true},
	{Name: "core.load_epoch_ms_p50", Unit: "ms"},
	{Name: "serve.snapshot_from_state_ms_p50", Unit: "ms"},
	{Name: "serve.poll_publish_ms_p50", Unit: "ms"},
	{Name: "serve.poll_idle_us_p50", Unit: "us"},
	{Name: "serve.first_point_us_p50", Unit: "us"},
	{Name: "serve.pipeline_reader_qps", Unit: "1/s", HigherBetter: true},
	{Name: "serve.tiler_build_ms", Unit: "ms"},
	{Name: "serve.locate_ns_p50", Unit: "ns"},
	{Name: "serve.tile_build_us_p50", Unit: "us"},
	{Name: "serve.engine_point_hit_us_p50", Unit: "us"},
	{Name: "serve.engine_point_miss_us_p50", Unit: "us"},
	{Name: "serve.engine_region_us_p50", Unit: "us"},
	{Name: "serve.engine_range_us_p50", Unit: "us"},
	{Name: "serve.handler_inproc_us_p50", Unit: "us"},
	{Name: "serve.handler_inproc_scan_us_p50", Unit: "us"},
	{Name: "serve.admit_encode_self_us", Unit: "us"},
	{Name: "serve.socket_self_us", Unit: "us"},
	{Name: "serve.resp_bytes_point_p50", Unit: "B", Count: true},
	{Name: "serve.resp_bytes_region_p50", Unit: "B", Count: true},
	{Name: "serve.resp_bytes_range_p50", Unit: "B", Count: true},
	{Name: "serve.hit_rate_hot", Unit: "ratio", HigherBetter: true},
	{Name: "serve.hit_rate_scan", Unit: "ratio", HigherBetter: true},
	{Name: "serve.tile_builds_per_kreq", Unit: "1/kreq"},
	{Name: "serve.coalesce_ratio", Unit: "ratio"},
	{Name: "serve.rejected_share", Unit: "ratio"},
	{Name: "serve.gen_lag_ms_p99", Unit: "ms"},
	{Name: "telemetry.span_ns", Unit: "ns"},
	{Name: "host.calib_ms", Unit: "ms"},
}

// replayLayers are the modules a traced replay's self time is split
// over; "bench" is the benchmark's own share (generator, waiting).
var replayLayers = []string{"dycore", "comm", "core", "tracer", "mlphysics", "serve", "bench"}

// replayMetrics are the per-layer numbers that describe the selected
// workload: what tracing cost it, and where its time went.
var replayMetrics = func() []metricDef {
	out := []metricDef{{Name: "bench.trace_overhead_frac", Unit: "ratio"}}
	for _, l := range replayLayers {
		out = append(out, metricDef{Name: "bench.share_" + l, Unit: "ratio"})
	}
	return out
}()

func layerUnit(name string) string {
	for _, d := range append(ladderMetrics, replayMetrics...) {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// replay is the traced run of one workload: its measured phase at half
// length with the recorder off, then on.
type replay struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Notes     []string           `json:"notes,omitempty"`
	Layers    map[string]float64 `json:"per_layer"`
}

func runReplay(w *workload, c *runCtx, rec *recorder) (replay, error) {
	one := *c
	one.reps = 1
	inst, p, err := w.prepare(&one)
	if err != nil {
		return replay{}, fmt.Errorf("%s: %w", w.name, err)
	}
	defer inst.close()
	rec.setWorkload(w.name)
	off := inst.measure(nil, 0.5)
	on := inst.measure(rec, 0.5)
	all := p.checks
	all.add(off.checks)
	all.add(on.checks)
	r := replay{Workload: w.name, Attempted: all.attempted, Failed: all.failed, Notes: all.notes, Layers: map[string]float64{}}
	// Same work per unit of wall time, recorder off over recorder on.
	off.aggregate()
	on.aggregate()
	r.Layers["bench.trace_overhead_frac"] = off.rate/on.rate - 1
	shares := layerShares(rec.spans, w.name)
	for _, l := range replayLayers {
		r.Layers["bench.share_"+l] = shares[l]
	}
	return r, nil
}

// ladder carries the rungs' shared state.
type ladder struct {
	c   *runCtx
	rec *recorder
	out map[string]float64
	checks
}

// timeSpan records f as a span and returns its duration.
func (l *ladder) timeSpan(name string, f func()) time.Duration {
	id := l.rec.begin(name, noSpan, 0)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	l.rec.end(id)
	return d
}

// spanMS returns the durations, in ms, of the spans named name recorded
// since index from.
func (l *ladder) spanMS(name string, from int) []float64 {
	var out []float64
	for _, s := range l.rec.spans[from:] {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// runLadder measures every layer once, bottom to top.
func runLadder(c *runCtx, rec *recorder) (map[string]float64, checks) {
	l := &ladder{c: c, rec: rec, out: map[string]float64{}}
	rec.setWorkload("ladder")
	l.out["host.calib_ms"] = calibrate()
	m5 := l.computeRungs()
	l.mlRungs(m5.NCells)
	l.storageAndServeRungs()
	l.out["telemetry.span_ns"] = l.spanCost()
	return l.out, l.checks
}

// computeRungs: mesh, partition, dycore, comm, the distributed driver and
// the coupled model.
func (l *ladder) computeRungs() *mesh.Mesh {
	sz, out := l.c.sz, l.out
	var m5 *mesh.Mesh
	out["mesh.build_g5_ms"] = ms(l.timeSpan("mesh.build_g5", func() { m5 = mesh.New(sz.DynLevel).ReorderBFS() }))
	var pl *core.DistPlan
	out["partition.decompose_g5_r2_ms"] = ms(l.timeSpan("partition.decompose_g5_r2", func() {
		pl = core.NewDistPlan(m5, sz.DynNLev, sz.DynRanks, 12345)
	}))
	out["partition.halo_cells_g5_r2"] = float64(pl.Decomp.MaxHaloCells())

	// The plain single-threaded step, DP and MIX.
	initFn := bubbleInit(l.c.seed)
	stepP50 := map[precision.Mode]float64{}
	for _, mode := range []precision.Mode{precision.DP, precision.Mixed} {
		name := map[precision.Mode]string{precision.DP: "dycore.step_dp", precision.Mixed: "dycore.step_mix"}[mode]
		eng := dycore.New(m5, sz.DynNLev, mode)
		initFn(eng.State())
		eng.Step(sz.DynDt)
		var walls []float64
		for i := 0; i < sz.LadderSteps; i++ {
			walls = append(walls, ms(l.timeSpan(name, func() { eng.Step(sz.DynDt) })))
		}
		stepP50[mode] = median(walls)
		out[name+"_ms_p50"] = stepP50[mode]
		if mode == precision.DP {
			// One more step with nothing else between the two readings,
			// so the count is the step's alone and repeats exactly.
			n0, b0 := mallocs()
			eng.Step(sz.DynDt)
			n1, b1 := mallocs()
			out["dycore.step_allocs"] = float64(n1 - n0)
			out["dycore.step_alloc_kb"] = float64(b1-b0) / 1024
			s := eng.State()
			out["dycore.state_mb"] = float64(8*(len(s.DryMass)+len(s.ThetaM)+len(s.U)+len(s.W)+len(s.Phi)+len(s.PhiSurf))) / 1e6
			l.check(allFinite(s.DryMass, s.ThetaM, s.U), "serial DP state not finite")
		}
	}
	out["dycore.mix_over_dp"] = stepP50[precision.Mixed] / stepP50[precision.DP]

	// Host-parallel loops, 2 workers over 1, on the coupled workload's mesh.
	mh := mesh.New(sz.HostparLevel).ReorderBFS()
	hostpar := func(workers int) time.Duration {
		eng := dycore.New(mh, sz.HostparNLev, precision.Mixed)
		initFn(eng.State())
		eng.SetHostParallelism(workers)
		eng.Step(sz.DynDt)
		return l.timeSpan(fmt.Sprintf("dycore.hostpar_w%d", workers), func() {
			for i := 0; i < 8; i++ {
				eng.Step(sz.DynDt)
			}
		})
	}
	w1 := hostpar(1)
	out["dycore.hostpar_speedup_w2"] = w1.Seconds() / hostpar(2).Seconds()

	l.haloRung(m5, pl)

	// The distributed driver: a timed run of N steps and one of none.
	tm := core.NewTimings()
	var st comm.ExchangeStats
	_, b0 := mallocs()
	wallN := l.timeSpan("core.run_distributed", func() {
		_, st = core.RunDistributedDynamicsTimed(m5, sz.DynNLev, sz.DynRanks, precision.DP, initFn, sz.LadderDistSteps, sz.DynDt, tm)
	})
	_, b1 := mallocs()
	wall0 := l.timeSpan("core.dist_setup", func() {
		core.RunDistributedDynamics(m5, sz.DynNLev, sz.DynRanks, precision.DP, initFn, 0, sz.DynDt)
	})
	n := float64(sz.LadderDistSteps)
	out["comm.halo_bytes_per_step"] = float64(st.BytesSent) / n
	out["comm.halo_rounds_per_step"] = float64(st.Rounds) / n
	out["comm.wait_share"] = core.MeasuredCommShare(tm)
	out["core.dist_setup_ms"] = ms(wall0)
	out["core.dist_step_ms"] = ms(wallN-wall0) / n
	out["core.dist_par_eff"] = stepP50[precision.DP] / (float64(sz.DynRanks) * out["core.dist_step_ms"])
	out["core.dist_alloc_mb"] = float64(b1-b0) / 1e6

	// The coupled model's physics step, split by its own component timers.
	ci, _ := newCoupled(l.c.seed, sz, 1)
	from := len(l.rec.spans)
	cm := ci.run(l.rec, sz.LadderCplSteps)
	l.add(cm.checks)
	perStep := func(span string) float64 { return sum(l.spanMS(span, from)) / float64(sz.LadderCplSteps) }
	out["core.coupled_dynamics_ms"] = perStep("dycore.dynamics")
	out["tracer.transport_ms"] = perStep("tracer.transport")
	out["mlphysics.coupled_compute_ms"] = perStep("mlphysics.compute")
	out["core.coupling_ms"] = perStep("core.coupling_input") + perStep("core.coupling_output")
	return m5
}

// haloRung times blocking exchange rounds of five 30-level cell fields
// (the prognostic count) between two ranks, with the exchanger's own
// pack / wait / unpack spans read back from a flight recorder.
func (l *ladder) haloRung(m *mesh.Mesh, pl *core.DistPlan) {
	sz := l.c.sz
	rounds := sz.LadderHaloRounds
	trec := telemetry.NewRecorder(3*sz.DynRanks*rounds + 16)
	var roundUS []float64
	l.timeSpan("comm.halo_loop", func() {
		comm.Run(sz.DynRanks, func(r *comm.Rank) {
			dom := comm.NewDomain(m, pl.Decomp, r.ID())
			ex := comm.NewHaloExchanger(dom, r)
			for _, name := range []string{"dry_mass", "theta_m", "w", "phi", "q"} {
				ex.Register(dom.NewField(name, sz.DynNLev))
			}
			ex.Exchange() // builds the wire layout
			ex.SetTelemetry(trec, int32(r.ID()))
			for i := 0; i < rounds; i++ {
				t0 := time.Now()
				ex.Exchange()
				if r.ID() == 0 {
					roundUS = append(roundUS, float64(time.Since(t0).Nanoseconds())/1e3)
				}
			}
		})
	})
	l.out["comm.halo_round_us_p50"] = median(roundUS)
	byName := map[string]float64{}
	for _, ev := range trec.Snapshot() {
		byName[ev.Name] += float64(ev.Dur) / 1e3
	}
	perRound := float64(rounds * sz.DynRanks)
	l.out["comm.halo_pack_us"] = byName["halo_pack"] / perRound
	l.out["comm.halo_wait_us"] = byName["halo_wait"] / perRound
	l.out["comm.halo_unpack_us"] = byName["halo_unpack"] / perRound
}

// mlRungs: the physics suite's batched call, its scalar oracle, and the
// bare inference engine in both precisions.
func (l *ladder) mlRungs(ncol int) {
	sz, out := l.c.sz, l.out
	mi, _ := newML(l.c.seed, sz, 1)
	mm := mi.run(l.rec, 3)
	l.add(mm.checks)
	out["mlphysics.compute_ms_p50"] = median(mm.unitMS)

	oracle := newSuite(l.c.seed, sz.MLNLev, 1)
	oracle.SetScalarOracle(true)
	in := columnInput(l.c.seed, sz.MLOracleCols, sz.MLNLev)
	o := physics.NewOutput(sz.MLOracleCols, sz.MLNLev)
	d := l.timeSpan("mlphysics.scalar_oracle", func() { oracle.Compute(in, o, mlDt) })
	out["mlphysics.scalar_cols_per_s"] = float64(sz.MLOracleCols) / d.Seconds()

	rng := rand.New(rand.NewSource(l.c.seed))
	src := make([]float64, ncol*mlphysics.TendencyChannels*sz.MLNLev)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	dst := make([]float64, ncol*mlphysics.TendencyOutputs*sz.MLNLev)
	p64, err64 := infer.Compile[float64](mi.suite.Tend, infer.Options{})
	p32, err32 := infer.Compile[float32](mi.suite.Tend, infer.Options{})
	l.check(err64 == nil && err32 == nil, "infer.Compile: %v %v", err64, err32)
	if err64 != nil || err32 != nil {
		return
	}
	forward := func(name string, fwd func()) float64 {
		fwd() // arenas
		d := l.timeSpan(name, func() {
			for i := 0; i < 2; i++ {
				fwd()
			}
		})
		return float64(2*ncol) / d.Seconds()
	}
	e64, e32 := infer.NewEngine(p64, 2), infer.NewEngine(p32, 2)
	out["infer.fwd_fp64_cols_per_s"] = forward("infer.forward_fp64", func() { e64.Forward(dst, src, ncol) })
	out["infer.fwd_fp32_cols_per_s"] = forward("infer.forward_fp32", func() { e32.Forward(dst, src, ncol) })
	n0, _ := mallocs()
	e32.Forward(dst, src, ncol)
	n1, _ := mallocs()
	out["infer.fwd_allocs"] = float64(n1 - n0)
	out["infer.fp32_over_fp64"] = out["infer.fwd_fp32_cols_per_s"] / out["infer.fwd_fp64_cols_per_s"]
	l.check(allFinite(dst), "inference output not finite")
}

// nullWriter is an http.ResponseWriter that keeps the status, the
// headers and the byte count, and nothing else.
type nullWriter struct {
	hdr    http.Header
	status int
	n      int
}

func (w *nullWriter) Header() http.Header         { return w.hdr }
func (w *nullWriter) WriteHeader(c int)           { w.status = c }
func (w *nullWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// storageAndServeRungs: the checkpoint pipeline piece by piece, then the
// query plane at four depths — locate, engine, handler, socket — on the
// two serve workloads' own query lists.
func (l *ladder) storageAndServeRungs() {
	sz, out, rec := l.c.sz, l.out, l.rec
	var m6 *mesh.Mesh
	out["mesh.build_g6_ms"] = ms(l.timeSpan("mesh.build_g6", func() { m6 = mesh.New(sz.SrvLevel).ReorderBFS() }))

	// The pipeline, epoch by epoch, with its spans.
	ck, _, err := newCkpt(l.c, 1)
	l.check(err == nil, "checkpoint set-up: %v", err)
	if err != nil {
		return
	}
	defer ck.close()
	from := len(rec.spans)
	cm := ck.run(rec, sz.LadderEpochs)
	l.add(cm.checks)
	shardMS := l.spanMS("core.write_shard", from)
	out["core.write_shard_ms_p50"] = median(shardMS)
	out["core.commit_ms_p50"] = median(l.spanMS("core.commit", from))
	out["serve.poll_publish_ms_p50"] = median(l.spanMS("serve.poll", from))
	out["serve.first_point_us_p50"] = 1e3 * median(l.spanMS("serve.first_point", from))
	out["core.epoch_bytes"] = float64(cm.counts["epoch_bytes"])
	out["core.epoch_files"] = float64(cm.counts["epoch_files"])
	out["core.write_shard_mb_per_s"] = float64(cm.counts["epoch_bytes"]*sz.LadderEpochs) / 1e6 / (sum(shardMS) / 1e3)
	for _, a := range cm.aliases {
		if a.Name == "serve.pipeline_reader_qps" {
			out[a.Name] = a.Value
		}
	}

	// The poller's two halves alone, and a poll with nothing new.
	last := ck.next - 1
	scratch := dycore.NewState(ck.state.M, sz.SrvNLev)
	var loadMS, snapMS, idleUS []float64
	for i := 0; i < 5; i++ {
		loadMS = append(loadMS, ms(l.timeSpan("core.load_epoch", func() {
			_, err = ck.store.LoadEpochState(last, scratch)
		})))
		l.check(err == nil, "LoadEpochState(%d): %v", last, err)
		snapMS = append(snapMS, ms(l.timeSpan("serve.snapshot_from_state", func() { serve.SnapshotFromState(last, last, scratch) })))
	}
	for i := 0; i < 20; i++ {
		idleUS = append(idleUS, 1e3*ms(l.timeSpan("serve.poll_idle", func() { ck.poller.Poll() })))
	}
	out["core.load_epoch_ms_p50"] = median(loadMS)
	out["serve.snapshot_from_state_ms_p50"] = median(snapMS)
	out["serve.poll_idle_us_p50"] = median(idleUS)

	// A query plane over eight epochs published straight from memory.
	var tiler *serve.Tiler
	out["serve.tiler_build_ms"] = ms(l.timeSpan("serve.tiler_build", func() { tiler = serve.NewTiler(m6, serveTiles, tilerSeed) }))
	srv := serve.NewServer(m6, serve.Config{}, telemetry.NewRegistry())
	state := dycore.NewState(m6, sz.SrvNLev)
	state.InitIdealized(dycore.CaseBaroclinicWave)
	rng := stream(l.c.seed, streamPerturb)
	orc := &oracle{m: m6, tiler: tiler}
	for e := 0; e < sz.SrvEpochs; e++ {
		perturbState(state, rng)
		snap := serve.SnapshotFromState(e, e, state)
		srv.Publish(snap)
		orc.snaps = append(orc.snaps, snap)
	}
	eng := srv.Engine
	nq := sz.LadderQueries
	hot := hotQueries(l.c.seed, sz.Hotspots)[:nq]
	scan := scanQueries(l.c.seed, sz.SrvEpochs)[:nq]

	// Depth 1: locate, in blocks of 100 so the clock is not the cost.
	var locNS []float64
	l.timeSpan("serve.locate", func() {
		for b := 0; b+100 <= nq; b += 100 {
			t0 := time.Now()
			for i := b; i < b+100; i++ {
				q := hot[i]
				if i%2 == 1 {
					q = scan[i]
				}
				orc.cell(q.lat, q.lon)
			}
			locNS = append(locNS, float64(time.Since(t0).Nanoseconds())/100)
		}
	})
	out["serve.locate_ns_p50"] = median(locNS)

	var buildUS []float64
	l.timeSpan("serve.tile_build", func() {
		for t := int32(0); t < serveTiles; t++ {
			for f := 0; f < serve.NumFields; f++ {
				t0 := time.Now()
				serve.NewTile(serve.TileKey{Epoch: 0, Tile: t, Field: uint8(f)}, orc.snaps[0], tiler.TileCells(t))
				buildUS = append(buildUS, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
	})
	out["serve.tile_build_us_p50"] = median(buildUS)

	// Depth 2: the engine, each kind on the list that exercises it.
	engineUS := func(span string, qs []query) map[string][]float64 {
		us := map[string][]float64{}
		l.timeSpan(span, func() {
			for _, q := range qs {
				var qerr *serve.Error
				t0 := time.Now()
				switch q.kind {
				case "point":
					_, _, qerr = eng.Point(q.epoch, q.field, q.lat, q.lon)
				case "region":
					_, _, qerr = eng.Region(q.epoch, q.field, q.lat, q.maxLat, q.lon, q.maxLon, q.limit)
				case "range":
					_, _, qerr = eng.Range(q.field, q.lat, q.lon, 0, -1)
				}
				us[q.kind] = append(us[q.kind], float64(time.Since(t0).Nanoseconds())/1e3)
				l.check(qerr == nil, "engine %s: %v", q.path, qerr)
			}
		})
		return us
	}
	engineUS("serve.engine_warm", hot[:min(nq, 2048)]) // fills the hot tiles
	out["serve.engine_point_hit_us_p50"] = median(engineUS("serve.engine_hot", hot)["point"])
	scanUS := engineUS("serve.engine_scan", scan)
	out["serve.engine_point_miss_us_p50"] = median(scanUS["point"])
	out["serve.engine_region_us_p50"] = median(scanUS["region"])
	out["serve.engine_range_us_p50"] = median(scanUS["range"])

	// Depth 3: the HTTP handler in process, responses discarded.
	mux := srv.Mux()
	var attempts, rejected int
	handlerPass := func(span string, qs []query) (us []float64, hitRate float64, bytes map[string][]float64) {
		reqs := make([]*http.Request, len(qs))
		for i, q := range qs {
			reqs[i], _ = http.NewRequest("GET", q.path, nil)
		}
		bytes = map[string][]float64{}
		hits := 0
		w := &nullWriter{hdr: http.Header{}}
		l.timeSpan(span, func() {
			for i, r := range reqs {
				clear(w.hdr)
				w.status, w.n = 200, 0
				t0 := time.Now()
				mux.ServeHTTP(w, r)
				us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
				attempts++
				if w.status < 200 || w.status > 299 {
					rejected++
				}
				if w.hdr.Get("X-Grist-Cache") == serve.CacheHit {
					hits++
				}
				bytes[qs[i].kind] = append(bytes[qs[i].kind], float64(w.n))
			}
		})
		return us, float64(hits) / float64(len(qs)), bytes
	}
	engineUS("serve.engine_warm", hot[:min(nq, 2048)]) // the scan pass evicted the hot tiles
	hotUS, hotHits, hotBytes := handlerPass("serve.handler_hot", hot)
	st0 := eng.Stats()
	scanHUS, scanHits, scanBytes := handlerPass("serve.handler_scan", scan)
	st1 := eng.Stats()
	out["serve.handler_inproc_us_p50"] = median(hotUS)
	out["serve.handler_inproc_scan_us_p50"] = median(scanHUS)
	out["serve.admit_encode_self_us"] = out["serve.handler_inproc_us_p50"] - out["serve.engine_point_hit_us_p50"]
	out["serve.hit_rate_hot"], out["serve.hit_rate_scan"] = hotHits, scanHits
	out["serve.resp_bytes_point_p50"] = median(hotBytes["point"])
	out["serve.resp_bytes_region_p50"] = median(scanBytes["region"])
	out["serve.resp_bytes_range_p50"] = median(scanBytes["range"])
	out["serve.tile_builds_per_kreq"] = 1000 * float64(st1.Builds-st0.Builds) / float64(len(scan))
	delta := serve.EngineStats{Misses: st1.Misses - st0.Misses, Coalesced: st1.Coalesced - st0.Coalesced}
	out["serve.coalesce_ratio"] = delta.CoalesceRatio()

	// Depth 4: the same mux behind a real loopback socket, one
	// connection, then a short open loop for the generator's own lag.
	d, err := startInProcess(srv)
	l.check(err == nil, "in-process server: %v", err)
	if err != nil {
		return
	}
	defer d.stop()
	si := &serveInst{sz: sz, seed: l.c.seed, queries: hot, oracle: orc, d: d}
	var sockUS []float64
	var t tally
	cn := newConn(d.baseURL)
	l.timeSpan("serve.socket_hot", func() {
		for i := 0; i < nq/4; i++ {
			t0 := time.Now()
			si.one(cn, i, &t, nil, 0)
			sockUS = append(sockUS, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	})
	cn.close()
	out["serve.socket_self_us"] = median(sockUS) - out["serve.handler_inproc_us_p50"]
	open := si.openLoop(sz.HotRate/3, 2*sz.SegS, nil)
	out["serve.gen_lag_ms_p99"] = percentile(sortedCopy(open.lagMS), 99)
	attempts += t.attempted + open.attempted
	rejected += t.attempted - t.ok + open.attempted - open.ok
	out["serve.rejected_share"] = float64(rejected) / float64(attempts)
	l.check(rejected == 0, "%d of %d ladder requests were not served; first: %s%s", rejected, attempts, t.firstErr, open.firstErr)
}

// spanCost is one Begin/End pair of the program's flight recorder.
func (l *ladder) spanCost() float64 {
	trec := telemetry.NewRecorder(1024)
	n := l.c.sz.LadderSpanIters
	d := l.timeSpan("telemetry.span_pairs", func() {
		for i := 0; i < n; i++ {
			trec.Begin("probe", 0).End()
		}
	})
	return float64(d.Nanoseconds()) / float64(n)
}

func printLayers(layers map[string]float64, replays []replay, notes []string) {
	fmt.Println("== per-layer ladder")
	for _, d := range ladderMetrics {
		tag := ""
		if d.Count {
			tag = "  (count)"
		}
		fmt.Printf("   %-36s %14.6g %-8s%s\n", d.Name, layers[d.Name], d.Unit, tag)
	}
	for _, r := range replays {
		fmt.Printf("== traced replay of %s  ops_attempted=%d ops_failed=%d\n", r.Workload, r.Attempted, r.Failed)
		keys := make([]string, 0, len(r.Layers))
		for k := range r.Layers {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("   %-36s %14.6g %s\n", k, r.Layers[k], layerUnit(k))
		}
	}
	for _, n := range notes {
		fmt.Printf("   FAILED: %s\n", n)
	}
}
