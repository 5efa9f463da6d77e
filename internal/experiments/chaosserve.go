package experiments

// Storage-plane chaos for the serving path: a producer committing
// epochs through a fault-injecting filesystem while a poller publishes
// them and a load replay queries the plane, per fault profile. The
// distilled CHAOS_serve.json asserts the three serving invariants the
// chaos-serve CI job gates on:
//
//  1. zero non-breaker 5xx — storage faults degrade (quarantine,
//     staleness headers, breaker sheds) but never surface as
//     unexplained server errors;
//  2. zero corrupt bytes served — every published snapshot matches the
//     checksum of the same epoch produced with injection off (CRC
//     verification plus quarantine keeps torn/flipped data out of the
//     serving window);
//  3. bounded recovery — once injection stops, continued production
//     drains the quarantine (re-verify or age out of the retention
//     window) and staleness returns to zero within a bounded number of
//     polls.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gristgo/internal/core"
	"gristgo/internal/dycore"
	"gristgo/internal/fault"
	"gristgo/internal/mesh"
	"gristgo/internal/serve"
	"gristgo/internal/telemetry"
	"gristgo/internal/vfs"
)

// ChaosServeConfig drives the serving-chaos experiment.
type ChaosServeConfig struct {
	GridLevel int
	NLev      int
	Epochs    int // epochs produced under fault injection
	Queries   int // queries per load burst (one burst per produced epoch)
	Retain    int
	Tiles     int
	MaxStale  int
	Seed      int64
	Dir       string // scratch + artifact directory

	// RecoveryPollBound caps the produce+poll iterations allowed for the
	// plane to fully recover after injection stops.
	RecoveryPollBound int
}

// DefaultChaosServeConfig returns the CI-scale setup: a G3 mesh, six
// epochs per fault profile, and enough recovery headroom for a
// permanently torn epoch to age out of the retention window.
func DefaultChaosServeConfig() ChaosServeConfig {
	return ChaosServeConfig{
		GridLevel: 3, NLev: 4,
		Epochs: 6, Queries: 2_000,
		Retain: 4, Tiles: 16, MaxStale: 2,
		Seed:              11,
		RecoveryPollBound: 24,
	}
}

// ChaosServeLeg is one fault profile's outcome.
type ChaosServeLeg struct {
	Profile        string `json:"profile"`
	EpochsProduced int    `json:"epochs_produced"` // committed under injection (incl. torn commits)
	ProduceRetries int    `json:"produce_retries"` // writer-side retries absorbed by fault injection
	PollErrors     int    `json:"poll_errors"`     // polls that returned an error

	QuarantinedTotal   int64 `json:"quarantined_total"`
	UnquarantinedTotal int64 `json:"unquarantined_total"`

	ChecksumsMatch bool `json:"checksums_match"` // every served snapshot == clean reference
	Recovered      bool `json:"recovered"`
	RecoveryPolls  int  `json:"recovery_polls"`

	Load serve.LoadReport `json:"load"`
}

// ChaosServeResult is the JSON payload of CHAOS_serve.json. The
// top-level verdict fields are scalars so bench.baseline.json can pin
// them without reaching into per-leg structure.
type ChaosServeResult struct {
	Seed int64                    `json:"seed"`
	Legs map[string]ChaosServeLeg `json:"legs"`

	ZeroNonBreaker5xx bool  `json:"zero_non_breaker_5xx"`
	AllChecksumsMatch bool  `json:"all_checksums_match"`
	AllRecovered      bool  `json:"all_recovered"`
	QuarantinedTotal  int64 `json:"quarantined_total"`
	MaxRecoveryPolls  int   `json:"max_recovery_polls"`
}

// chaosServeProfiles lists the fault profiles each run exercises.
var chaosServeProfiles = []string{"fsflaky", "fstorn", "fsslow"}

// benchState builds one epoch's full-mesh state: a resting isothermal
// atmosphere with a traveling warm anomaly and a solid-body wind, so
// the served fields vary by epoch without running the dycore.
func benchState(m *mesh.Mesh, nlev, epoch int) *dycore.State {
	s := dycore.NewState(m, nlev)
	s.IsothermalRest(290 + float64(epoch))
	s.AddThermalBubble(0.3+0.2*float64(epoch), 1.0, 0.25, 5)
	s.AddSolidBodyWind(15)
	return s
}

// cleanChecksums derives the uninjected truth: the snapshot checksum
// of every epoch the producer would commit, computed directly from the
// deterministic per-epoch state without touching a filesystem.
func cleanChecksums(m *mesh.Mesh, nlev, epochs, extra int) map[int]uint64 {
	sums := make(map[int]uint64, epochs+extra)
	for e := 0; e < epochs+extra; e++ {
		snap := serve.SnapshotFromState(e, e*10, benchState(m, nlev, e))
		sums[e] = snap.Checksum()
	}
	return sums
}

// addLoad accumulates one burst's counters into the leg aggregate
// (latency percentiles are per-burst and not meaningfully summable, so
// the aggregate keeps the last burst's).
func addLoad(acc *serve.LoadReport, b serve.LoadReport) {
	qs := acc.Queries
	ok, c4, q429, b429, br503, s5 := acc.OK, acc.Client4xx, acc.Quota429, acc.Busy429, acc.Breaker503, acc.Server5xx
	dur := acc.DurationSec
	*acc = b
	acc.Queries += qs
	acc.OK += ok
	acc.Client4xx += c4
	acc.Quota429 += q429
	acc.Busy429 += b429
	acc.Breaker503 += br503
	acc.Server5xx += s5
	acc.DurationSec += dur
	if acc.DurationSec > 0 {
		acc.QPS = float64(acc.Queries) / acc.DurationSec
	}
}

// quarantineCount sums the reason-labelled quarantine counter.
func quarantineCount(reg *telemetry.Registry) int64 {
	var total int64
	for _, reason := range []string{serve.FailMissing, serve.FailTorn, serve.FailCorrupt, serve.FailIO} {
		total += reg.Counter("grist_serve_quarantined_total", "reason", reason).Value()
	}
	return total
}

// runChaosServeLeg runs producer + poller + load under one fault
// profile, then recovers with injection off.
func runChaosServeLeg(m *mesh.Mesh, cfg ChaosServeConfig, prof fault.FSProfile, sums map[int]uint64) (ChaosServeLeg, error) {
	leg := ChaosServeLeg{Profile: prof.Name, ChecksumsMatch: true}

	dir := filepath.Join(cfg.Dir, "chaosserve-"+prof.Name)
	if err := emptyDir(dir); err != nil {
		return leg, err
	}
	ffs := fault.NewFS(vfs.OS, cfg.Seed, prof)
	pl := core.NewDistPlan(m, cfg.NLev, 1, 12345)
	st, err := core.NewShardStoreFS(dir, pl, ffs)
	if err != nil {
		return leg, err
	}

	reg := telemetry.NewRegistry()
	srv := serve.NewServer(m, serve.Config{
		Tiles:    cfg.Tiles,
		Retain:   cfg.Retain,
		MaxStale: cfg.MaxStale,
	}, reg)
	poller := serve.NewShardPoller(st, srv.Engine.Store())
	poller.SetSeed(cfg.Seed)
	poller.SetMetrics(reg)

	// produce commits one epoch through the (possibly faulty) store,
	// retrying explicit write errors a few times the way a real producer
	// would; torn renames report success and are the poller's problem.
	produce := func(epoch int) {
		s := benchState(m, cfg.NLev, epoch)
		step := epoch * 10
		for attempt := 0; attempt < 5; attempt++ {
			if err := st.WriteShard(epoch, 0, step, s); err != nil {
				leg.ProduceRetries++
				continue
			}
			if err := st.Commit(epoch, step); err != nil {
				leg.ProduceRetries++
				continue
			}
			leg.EpochsProduced++
			return
		}
	}

	// verifyServed asserts every snapshot currently in the serving
	// window is bitwise the clean reference for its epoch.
	verifyServed := func() {
		store := srv.Engine.Store()
		for _, e := range store.Epochs() {
			snap, ok := store.At(e)
			if !ok {
				continue
			}
			if snap.Checksum() != sums[e] {
				leg.ChecksumsMatch = false
			}
		}
	}

	poll := func() {
		if _, err := poller.Poll(); err != nil {
			leg.PollErrors++
		}
		srv.SetStaleness(poller.Staleness())
		srv.SetQuarantine(poller.Quarantined())
	}

	// Phase 1: produce + poll + load under injection.
	for e := 0; e < cfg.Epochs; e++ {
		produce(e)
		poll()
		verifyServed()
		if srv.Engine.Store().Latest() == nil {
			continue // nothing published yet; a load burst would be all 404s
		}
		burst := serve.RunLoadInProcess(srv.Mux(), srv.Engine, serve.LoadConfig{
			Queries: cfg.Queries,
			Seed:    cfg.Seed + int64(e),
		})
		addLoad(&leg.Load, burst)
	}

	// Phase 2: injection off; continued production must drain the
	// quarantine (re-verify or age out) and staleness within the bound.
	ffs.SetActive(false)
	next := cfg.Epochs
	for i := 0; i < cfg.RecoveryPollBound; i++ {
		if len(poller.Quarantined()) == 0 && poller.Staleness() == 0 {
			break
		}
		produce(next)
		next++
		poll()
		leg.RecoveryPolls++
	}
	leg.Recovered = len(poller.Quarantined()) == 0 && poller.Staleness() == 0
	verifyServed()

	// Post-recovery burst: the healthy plane serves clean.
	if srv.Engine.Store().Latest() != nil {
		burst := serve.RunLoadInProcess(srv.Mux(), srv.Engine, serve.LoadConfig{
			Queries: cfg.Queries,
			Seed:    cfg.Seed + 1000,
		})
		addLoad(&leg.Load, burst)
	}

	leg.QuarantinedTotal = quarantineCount(reg)
	leg.UnquarantinedTotal = reg.Counter("grist_serve_unquarantined_total").Value()
	return leg, nil
}

// RunChaosServe runs every fault profile and folds the verdicts.
func RunChaosServe(cfg ChaosServeConfig) (ChaosServeResult, error) {
	m := mesh.New(cfg.GridLevel).ReorderBFS()
	sums := cleanChecksums(m, cfg.NLev, cfg.Epochs, cfg.RecoveryPollBound)
	res := ChaosServeResult{
		Seed:              cfg.Seed,
		Legs:              map[string]ChaosServeLeg{},
		ZeroNonBreaker5xx: true,
		AllChecksumsMatch: true,
		AllRecovered:      true,
	}
	for _, name := range chaosServeProfiles {
		prof, err := fault.ParseFSProfile(name)
		if err != nil {
			return res, err
		}
		leg, err := runChaosServeLeg(m, cfg, prof, sums)
		if err != nil {
			return res, fmt.Errorf("leg %s: %w", name, err)
		}
		res.Legs[name] = leg
		if leg.Load.Server5xx > 0 {
			res.ZeroNonBreaker5xx = false
		}
		if !leg.ChecksumsMatch {
			res.AllChecksumsMatch = false
		}
		if !leg.Recovered {
			res.AllRecovered = false
		}
		res.QuarantinedTotal += leg.QuarantinedTotal
		if leg.RecoveryPolls > res.MaxRecoveryPolls {
			res.MaxRecoveryPolls = leg.RecoveryPolls
		}
	}
	return res, nil
}

// Rows renders the result as aligned report lines.
func (r ChaosServeResult) Rows() []string {
	rows := []string{fmt.Sprintf("seed=%d profiles=%d quarantined=%d max recovery polls=%d",
		r.Seed, len(r.Legs), r.QuarantinedTotal, r.MaxRecoveryPolls)}
	for _, name := range chaosServeProfiles {
		l, ok := r.Legs[name]
		if !ok {
			continue
		}
		verdict := "clean"
		if !l.ChecksumsMatch {
			verdict = "CORRUPT BYTES SERVED"
		} else if !l.Recovered {
			verdict = "DID NOT RECOVER"
		} else if l.Load.Server5xx > 0 {
			verdict = "UNEXPLAINED 5xx"
		}
		rows = append(rows, fmt.Sprintf(
			"%-8s %s (produced=%d retries=%d quarantined=%d unquarantined=%d recovery polls=%d 2xx=%d 5xx=%d breaker503=%d)",
			l.Profile, verdict, l.EpochsProduced, l.ProduceRetries,
			l.QuarantinedTotal, l.UnquarantinedTotal, l.RecoveryPolls,
			l.Load.OK, l.Load.Server5xx, l.Load.Breaker503))
	}
	return rows
}

// WriteChaosServe runs the default serving-chaos experiment under dir
// and writes CHAOS_serve.json there.
func WriteChaosServe(dir string) (ChaosServeResult, error) {
	cfg := DefaultChaosServeConfig()
	cfg.Dir = dir
	return WriteChaosServeConfig(cfg)
}

// WriteChaosServeConfig is WriteChaosServe with an explicit
// configuration; the artifact lands in cfg.Dir.
func WriteChaosServeConfig(cfg ChaosServeConfig) (ChaosServeResult, error) {
	res, err := RunChaosServe(cfg)
	if err != nil {
		return res, err
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return res, err
	}
	return res, os.WriteFile(filepath.Join(cfg.Dir, "CHAOS_serve.json"), append(buf, '\n'), 0o644)
}
