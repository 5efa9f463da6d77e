// Command gristd is the forecast-as-a-service daemon: it watches a
// directory of committed checkpoint epochs (written by a live run via
// `grist -serve.export`, a distributed run's ShardStore, or its own
// -replay generator), publishes each epoch as an immutable snapshot,
// and serves point/region/time-range queries over HTTP with per-tenant
// quotas and bounded-queue backpressure.
//
//	gristd -replay.epochs 3 -level 4 -layers 8 -addr :8080
//	curl 'localhost:8080/v1/point?lat=40.7&lon=-74.0&field=t_sfc'
//
// The query plane and the telemetry plane (/metrics, /metrics.json,
// /trace, /debug/pprof) share one mux and one port.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"gristgo/internal/core"
	"gristgo/internal/fault"
	"gristgo/internal/mesh"
	"gristgo/internal/obs"
	"gristgo/internal/physics"
	"gristgo/internal/serve"
	"gristgo/internal/synthclim"
	"gristgo/internal/telemetry"
	"gristgo/internal/vfs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address for the query + telemetry planes (:0 picks a free port)")
	data := flag.String("data", "", "checkpoint/snapshot directory to watch (required unless -replay.epochs)")
	level := flag.Int("level", 4, "icosahedral grid level of the producing run")
	layers := flag.Int("layers", 10, "vertical layers of the producing run")
	parts := flag.Int("parts", 1, "rank count of the producing run's shard layout")
	poll := flag.Duration("poll", 2*time.Second, "how often to poll -data for newly committed epochs")
	retain := flag.Int("retain", 8, "snapshot epochs retained for time-range queries (at least 1)")
	tiles := flag.Int("tiles", 48, "spatial tiles over the mesh (the cache granule)")
	cacheTiles := flag.Int("cache", 0, "tile-cache capacity in tiles (0 = 2x -tiles)")
	quotaRate := flag.Float64("quota.rate", 0, "per-tenant sustained queries/second (0 = unlimited)")
	quotaBurst := flag.Float64("quota.burst", 64, "per-tenant burst capacity in queries")
	queueDepth := flag.Int("queue", 256, "max in-flight queries before shedding with 429")
	replayEpochs := flag.Int("replay.epochs", 0, "self-generate N committed epochs by running the model (demo mode; -data optional)")
	logFormat := flag.String("log.format", "text", "structured log format: text or json")
	maxStale := flag.Int("serve.max-stale", 4, "degraded mode once serving lags this many committed epochs")
	faultProfile := flag.String("fault.profile", "off", "filesystem fault profile over -data ("+fault.FSProfiles()+")")
	faultSeed := flag.Int64("fault.seed", 1, "seed of the filesystem fault verdict stream")
	flag.Parse()

	if err := telemetry.SetDefaultLogger(*logFormat, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *data == "" && *replayEpochs <= 0 {
		fmt.Fprintln(os.Stderr, "gristd: need -data DIR to watch, or -replay.epochs N to self-generate one")
		os.Exit(2)
	}
	if *retain < 1 {
		fmt.Fprintln(os.Stderr, "gristd: -retain must be at least 1")
		os.Exit(2)
	}
	if *data == "" {
		dir, err := os.MkdirTemp("", "gristd-replay-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		*data = dir
	}

	fmt.Printf("Building G%d mesh...\n", *level)
	m := mesh.New(*level).ReorderBFS()

	if *replayEpochs > 0 {
		if err := generateReplay(m, *data, *level, *layers, *replayEpochs); err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			os.Exit(1)
		}
		*parts = 1
	}

	// The daemon reads -data through the vfs seam; a named fault profile
	// decorates it with seeded storage chaos (for drills and demos — the
	// plane must keep serving through it).
	fsys := vfs.OS
	prof, err := fault.ParseFSProfile(*faultProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if prof != (fault.FSProfile{Name: prof.Name}) {
		fmt.Printf("Storage chaos: profile %s seed %d over %s\n", prof.Name, *faultSeed, *data)
		fsys = fault.NewFS(vfs.OS, *faultSeed, prof)
	}

	// Listen first: a taken port fails the start before the
	// decompositions and the poll, and a client that connects early waits
	// in the backlog until the server serves.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("gristd on http://%s/ (/v1/point /v1/region /v1/range /v1/epochs /healthz /metrics /debug/query /debug/step)\n", ln.Addr())
	fmt.Printf("  watching %s every %s (%d ranks, %d layers, retain %d epochs)\n",
		*data, *poll, *parts, *layers, *retain)

	// The first poll does not need the server's tiler, a decomposition
	// of its own: build the server on a goroutine, and serve once it
	// exists, while this goroutine builds the plan and runs the first
	// poll into the snapshot store the server reads. The query
	// plane and the telemetry endpoints share one mux, with the debug
	// plane (/debug/query traces, /debug/step postmortems over the
	// daemon's own flight ring).
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(1 << 14)
	store := serve.NewSnapshotStore(*retain)
	built := make(chan *serve.Server, 1)
	go func() {
		srv := serve.NewServerOn(m, serve.Config{
			Tiles:      *tiles,
			CacheTiles: *cacheTiles,
			QueueDepth: *queueDepth,
			QuotaRate:  *quotaRate,
			QuotaBurst: *quotaBurst,
			MaxStale:   *maxStale,
		}, store, reg)
		mux := telemetry.NewMux(reg, rec)
		srv.Register(mux)
		srv.RegisterDebug(mux)
		mux.Handle("/debug/step", obs.StepHandler(func() ([][]telemetry.Event, uint64) {
			return obs.Rings(rec)
		}))
		built <- srv
		http.Serve(ln, mux)
	}()

	src, err := core.NewShardStoreFS(*data, core.NewDistPlan(m, *layers, *parts, 12345), fsys)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	poller := serve.NewShardPoller(src, store)
	poller.SetSeed(*faultSeed)
	poller.SetLogger(slog.Default())
	poller.SetMetrics(reg)

	pollErrors := reg.Counter("grist_serve_poll_errors_total")
	pollOnce := func() (int, error) {
		span := rec.Begin("poll", 0)
		defer span.End()
		return poller.Poll()
	}
	// The first poll backfills the retention window on every core. Once
	// built, the server serves each epoch as it is published, in order.
	n, err := pollOnce()
	srv := <-built
	// report hands a poll's outcome to the server and the log.
	report := func(n int, err error) error {
		srv.SetStaleness(poller.Staleness())
		srv.SetQuarantine(poller.Quarantined())
		if err != nil {
			pollErrors.Inc()
			return err
		}
		if n > 0 {
			slog.Info("snapshots published", "count", n, "epoch", store.Latest().Epoch)
		}
		return nil
	}
	if err := report(n, err); err != nil {
		slog.Warn("initial snapshot poll failed", "dir", *data, "err", err)
	}

	// Persistent poll failures back off exponentially (capped, jittered)
	// instead of hammering a sick filesystem at the base interval, with
	// one log line per backoff step rather than one per tick.
	bo := serve.NewBackoff(*poll, time.Minute, *faultSeed)
	for {
		if err := report(pollOnce()); err != nil {
			wait := bo.Next()
			slog.Warn("snapshot poll failed; backing off",
				"dir", *data, "err", err, "consecutive", bo.Fails(), "retry_in", wait)
			time.Sleep(wait)
			continue
		}
		bo.Reset()
		time.Sleep(*poll)
	}
}

// replayStepsPerEpoch is the physics steps between self-generated epochs.
const replayStepsPerEpoch = 2

// generateReplay runs a small serial model and exports an epoch every
// replayStepsPerEpoch physics steps — a self-contained producer for
// demos and tests, using exactly the wire format a real run exports.
func generateReplay(m *mesh.Mesh, dir string, level, layers, epochs int) error {
	fmt.Printf("Replay: generating %d epochs (%d steps apart) into %s\n", epochs, replayStepsPerEpoch, dir)
	mod := core.NewModelOnMesh(core.Config{GridLevel: level, NLev: layers}, physics.Null{}, m)
	cl := synthclim.ForPeriod(synthclim.Table1()[2], 0)
	mod.InitializeClimate(cl)
	st, err := mod.NewSnapshotStore(dir)
	if err != nil {
		return err
	}
	for e := 0; e < epochs; e++ {
		if e > 0 {
			for i := 0; i < replayStepsPerEpoch; i++ {
				mod.StepPhysics(cl.Season)
			}
		}
		if err := mod.ExportSnapshot(st, e); err != nil {
			return err
		}
	}
	return nil
}
