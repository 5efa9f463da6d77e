// Command grist runs the coupled model: a GRIST-style global simulation
// on an icosahedral grid with either the conventional or the ML physics
// suite, printing diagnostics and the achieved simulation speed (SDPD),
// mirroring the ParGRIST driver of the paper's artifact.
//
//	grist -level 4 -layers 10 -hours 24 -mode mix -physics conv
package main

import (
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"time"

	"gristgo/internal/core"
	"gristgo/internal/diag"
	"gristgo/internal/durable"
	"gristgo/internal/fault"
	"gristgo/internal/mlphysics"
	"gristgo/internal/physics"
	"gristgo/internal/precision"
	"gristgo/internal/serve"
	"gristgo/internal/synthclim"
	"gristgo/internal/telemetry"
	"gristgo/internal/vfs"
)

func main() {
	level := flag.Int("level", 4, "icosahedral grid level (G-level)")
	layers := flag.Int("layers", 10, "vertical layers")
	hours := flag.Float64("hours", 24, "simulated hours")
	mode := flag.String("mode", "mix", "dycore precision: dp or mix")
	phys := flag.String("physics", "conv", "physics suite: conv, ml (requires -weights), none")
	weights := flag.String("weights", "", "trained ML suite weights (from gristtrain)")
	period := flag.Int("period", 2, "Table 1 period index 0-3 for the initial climate")
	terrain := flag.Bool("terrain", true, "include synthetic orography")
	timings := flag.Bool("timings", false, "print the per-component timing table")
	restartIn := flag.String("restart", "", "resume from a restart file")
	restartOut := flag.String("restart-out", "", "write a restart file at the end (atomic, CRC-framed)")
	remapEvery := flag.Int("remap", 0, "vertical remap every N physics steps (0 off)")
	workers := flag.Int("workers", -1, "host threads for the dycore and tracer loops (mesh.ParallelFor) and the ML inference pool (-1 = all CPUs)")
	output := flag.String("output", "", "write a GDF history file at the end (atomic, CRC-framed; read it with gdfdump)")
	telAddr := flag.String("telemetry.addr", "", "serve the observability plane on this address (e.g. :9090; :0 picks a free port): /metrics and /metrics.json for scrapes, /trace for a live Chrome trace_event dump of the flight-recorder ring, /debug/pprof for profiles")
	telHold := flag.Duration("telemetry.hold", 0, "keep the telemetry server (including /trace and /debug/pprof) up this long after the run finishes, so the final ring can still be scraped")
	traceOut := flag.String("trace-out", "", "write the flight-recorder ring as Chrome trace_event JSON at the end (same payload as GET /trace; open in Perfetto)")
	serveAddr := flag.String("serve.addr", "", "serve the forecast query plane (/v1/point /v1/region /v1/range /v1/epochs /healthz) over the live run on this address; snapshots publish every -serve.every steps")
	serveExport := flag.String("serve.export", "", "export gristd-compatible snapshot epochs into this directory every -serve.every steps (watch it with gristd -data DIR -parts 1)")
	serveEvery := flag.Int("serve.every", 4, "physics steps between snapshot publications/exports for -serve.addr and -serve.export")
	faultProf := flag.String("fault.profile", "", "inject faults: off or mlnan (mlnan corrupts one ML inference output; needs -physics ml)")
	faultSeed := flag.Int64("fault.seed", 1, "fault-injection seed (deterministic per seed+profile)")
	logFormat := flag.String("log.format", "text", "structured log format: text or json")
	flag.Parse()

	if err := telemetry.SetDefaultLogger(*logFormat, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	pm, err := checkRun(*mode, *period, *faultProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var scheme physics.Scheme
	var mlSuite *mlphysics.Suite
	switch *phys {
	case "conv":
		scheme = physics.NewConventional(*layers)
	case "none":
		scheme = physics.Null{}
	case "ml":
		if *weights == "" {
			fmt.Fprintln(os.Stderr, "-physics ml requires -weights FILE (train with gristtrain)")
			os.Exit(2)
		}
		f, err := os.Open(*weights)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		suite, err := mlphysics.LoadSuite(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "loading weights:", err)
			os.Exit(1)
		}
		if suite.NLev != *layers {
			fmt.Fprintf(os.Stderr, "weights were trained for %d layers, run uses %d\n", suite.NLev, *layers)
			os.Exit(2)
		}
		scheme, mlSuite = suite, suite
	default:
		fmt.Fprintf(os.Stderr, "unknown physics %q\n", *phys)
		os.Exit(2)
	}

	fmt.Printf("Building G%d mesh...\n", *level)
	mod := core.NewModel(core.Config{GridLevel: *level, NLev: *layers, Mode: pm, HostWorkers: *workers}, scheme)
	fmt.Printf("  cells=%d edges=%d verts=%d layers=%d physics=%s dycore=%s\n",
		mod.Mesh.NCells, mod.Mesh.NEdges, mod.Mesh.NVerts, *layers, scheme.Name(), pm)

	cl := synthclim.ForPeriod(synthclim.Table1()[*period], 0)
	mod.InitializeClimate(cl)
	if *terrain {
		mod.SetTerrain(synthclim.Terrain)
	}
	mod.RemapEvery = *remapEvery
	if *restartIn != "" {
		if err := mod.ReadRestartFile(*restartIn); err != nil {
			fmt.Fprintln(os.Stderr, "restart:", err)
			os.Exit(1)
		}
		fmt.Printf("Resumed from %s at t=%.1fh\n", *restartIn, mod.TimeSec/3600)
	}

	if *faultProf == "mlnan" {
		if mlSuite == nil {
			fmt.Fprintln(os.Stderr, "-fault.profile mlnan requires -physics ml")
			os.Exit(2)
		}
		mlSuite.SetOutputFault(fault.MLOutputFault(*faultSeed, 0))
		fmt.Printf("Fault injection: mlnan (seed %d) — one inference batch will be corrupted\n", *faultSeed)
	}

	_, _, _, dtPhy := mod.EffectiveSteps()
	steps := int(math.Round(*hours * 3600 / dtPhy))
	if steps < 1 {
		steps = 1
	}
	fmt.Printf("Running %d physics steps of %.0fs (%.1f simulated hours)\n", steps, dtPhy, *hours)

	// Observability plane: one registry + flight recorder shared by the
	// HTTP endpoints, the trace file and the timing table.
	observing := *telAddr != "" || *traceOut != ""
	var reg *telemetry.Registry
	var rec *telemetry.Recorder
	tm := core.NewTimings()
	if observing {
		reg = telemetry.NewRegistry()
		rec = telemetry.NewRecorder(1 << 16)
		tm = core.NewTimingsOn(reg)
		mod.EnableTelemetry(reg, rec, func(ev diag.HealthEvent) {
			fmt.Fprintln(os.Stderr, ev.String())
		})
	}
	var srv interface{ Close() error }
	if *telAddr != "" {
		s, addr, err := telemetry.Serve(*telAddr, reg, rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "telemetry:", err)
			os.Exit(1)
		}
		srv = s
		fmt.Printf("Telemetry on http://%s/ (/metrics, /trace, /debug/pprof)\n", addr)
	}

	// Serving-plane passthrough: -serve.addr answers queries over the
	// live run in process; -serve.export writes gristd-compatible
	// snapshot epochs (single-rank ShardStore wire format) for an
	// out-of-process gristd to watch.
	if *serveEvery < 1 {
		*serveEvery = 1
	}
	var queryPlane *serve.Server
	var querySrv *http.Server
	if *serveAddr != "" {
		if reg == nil {
			reg = telemetry.NewRegistry()
		}
		queryPlane = serve.NewServer(mod.Mesh, serve.Config{}, reg)
		ln, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		querySrv = &http.Server{Handler: queryPlane.Mux()}
		go querySrv.Serve(ln)
		fmt.Printf("Query plane on http://%s/ (/v1/point /v1/region /v1/range /v1/epochs /healthz), publishing every %d steps\n",
			ln.Addr(), *serveEvery)
	}
	var exportStore *core.ShardStore
	if *serveExport != "" {
		st, err := mod.NewSnapshotStore(*serveExport)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve.export:", err)
			os.Exit(1)
		}
		exportStore = st
		fmt.Printf("Exporting snapshot epochs to %s every %d steps (gristd -data %s -parts 1 -layers %d)\n",
			*serveExport, *serveEvery, *serveExport, *layers)
	}
	epoch := 0
	publishSnapshot := func() {
		if queryPlane != nil {
			queryPlane.Publish(serve.SnapshotFromState(epoch, epoch**serveEvery, mod.Engine.State()))
		}
		if exportStore != nil {
			if err := mod.ExportSnapshot(exportStore, epoch); err != nil {
				fmt.Fprintln(os.Stderr, "serve.export:", err)
				os.Exit(1)
			}
		}
		epoch++
	}
	serving := queryPlane != nil || exportStore != nil
	if serving {
		publishSnapshot() // epoch 0: the initial state, queryable immediately
	}

	start := time.Now()
	for i := 0; i < steps; i++ {
		if *timings || observing {
			mod.StepPhysicsTimed(cl.Season, tm)
		} else {
			mod.StepPhysics(cl.Season)
		}
		if serving && (i+1)%*serveEvery == 0 {
			publishSnapshot()
		}
		if (i+1)%max(1, steps/10) == 0 {
			ps := mod.Engine.State().SurfacePressure()
			var meanPs, maxP float64
			for _, p := range ps {
				meanPs += p
			}
			meanPs /= float64(len(ps))
			for _, p := range mod.PrecipRate() {
				if p > maxP {
					maxP = p
				}
			}
			fmt.Printf("  t=%6.1fh  mean ps=%8.1f Pa  max precip=%6.1f mm/day\n",
				mod.TimeSec/3600, meanPs, maxP)
		}
	}
	wall := time.Since(start).Seconds()
	simDays := mod.TimeSec / 86400
	fmt.Printf("Finished: %.2f simulated days in %.1fs wall -> %.2f SDPD on this host\n",
		simDays, wall, simDays/(wall/86400))
	if mlSuite != nil {
		if n := mlSuite.FallbackCount(); n > 0 {
			fmt.Printf("ML physics fell back to the scalar oracle on %d step(s) (grist_physics_fallback_total)\n", n)
		}
	}
	if *timings {
		fmt.Print(tm.Report())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = rec.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "writing trace:", err)
			os.Exit(1)
		}
		fmt.Printf("Wrote Chrome trace to %s (open at https://ui.perfetto.dev)\n", *traceOut)
	}
	if srv != nil || querySrv != nil {
		if *telHold > 0 {
			fmt.Printf("Holding telemetry/query servers for %s...\n", *telHold)
			time.Sleep(*telHold)
		}
		if srv != nil {
			srv.Close()
		}
		if querySrv != nil {
			querySrv.Close()
		}
	}
	if *output != "" {
		if err := durable.WriteFile(vfs.OS, *output, durable.History, mod.WriteHistory); err != nil {
			fmt.Fprintln(os.Stderr, "writing history:", err)
			os.Exit(1)
		}
		fmt.Printf("Wrote history to %s (atomic, CRC-framed)\n", *output)
	}
	if *restartOut != "" {
		if err := mod.WriteRestartFile(*restartOut); err != nil {
			fmt.Fprintln(os.Stderr, "writing restart:", err)
			os.Exit(1)
		}
		fmt.Printf("Wrote restart to %s (atomic, CRC-framed)\n", *restartOut)
	}
}

// checkRun resolves -mode to a precision mode and checks -period and
// -fault.profile, naming the valid values when any is wrong. A serial
// run has no halo messages or rank steps for a transport profile to hit.
func checkRun(mode string, period int, faultProf string) (precision.Mode, error) {
	var pm precision.Mode
	switch mode {
	case "dp":
		pm = precision.DP
	case "mix":
		pm = precision.Mixed
	default:
		return 0, fmt.Errorf("unknown -mode %q (want dp or mix)", mode)
	}
	if n := len(synthclim.Table1()); period < 0 || period >= n {
		return 0, fmt.Errorf("-period %d out of range (want 0-%d)", period, n-1)
	}
	if faultProf != "" && faultProf != "off" && faultProf != "mlnan" {
		return 0, fmt.Errorf("-fault.profile %q cannot be injected into a serial run (want off, mlnan or \"\")", faultProf)
	}
	return pm, nil
}
