package experiments

// Chaos experiment: the resilience layer exercised end to end under
// seeded fault injection, distilled into two JSON artifacts the CI
// chaos job uploads — CHAOS_recovery.json (recovery events, injected
// faults, the bitwise verdict and the resilience counters) and
// CHAOS_sentinels.json (the health monitor's trip history). Three legs:
//
//  1. rank death: a rank dies mid-run; the run rolls back to the last
//     committed checkpoint epoch, replays, and must finish bitwise
//     identical to an undisturbed run;
//  2. bit flip: a corrupted halo payload trips the mass sentinel, the
//     poisoned leg is rolled back, and the replay (the flip budget is
//     spent) must again match the clean run bitwise;
//  3. ML NaN: a poisoned inference batch must fall back to the scalar
//     oracle with zero NaNs reaching the physics output.

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"gristgo/internal/coarse"
	"gristgo/internal/core"
	"gristgo/internal/diag"
	"gristgo/internal/dycore"
	"gristgo/internal/fault"
	"gristgo/internal/mesh"
	"gristgo/internal/mlphysics"
	"gristgo/internal/physics"
	"gristgo/internal/precision"
	"gristgo/internal/telemetry"
)

// ChaosConfig drives the chaos experiment.
type ChaosConfig struct {
	GridLevel int
	NLev      int
	NParts    int
	Steps     int
	CkptEvery int
	Seed      int64
	Dir       string // scratch + artifact directory
}

// DefaultChaosConfig returns the CI-scale setup.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{GridLevel: 3, NLev: 4, NParts: 4, Steps: 9, CkptEvery: 3, Seed: 7}
}

// ChaosLeg is one fault scenario's outcome.
type ChaosLeg struct {
	Profile     string          `json:"profile"`
	Bitwise     bool            `json:"bitwise_vs_clean"` // final state matches the uninjected run
	Attempts    int             `json:"attempts"`
	Recoveries  int             `json:"recoveries"`
	Events      []core.RunEvent `json:"events,omitempty"`
	Faults      []fault.Event   `json:"injected_faults,omitempty"`
	FaultsExtra int             `json:"injected_faults_overflow,omitempty"`
	Err         string          `json:"error,omitempty"`
}

// ChaosResult is the JSON payload of CHAOS_recovery.json.
type ChaosResult struct {
	Seed            int64    `json:"seed"`
	RankDeath       ChaosLeg `json:"rank_death"`
	BitFlip         ChaosLeg `json:"bit_flip"`
	RecoveryTotal   int64    `json:"grist_recovery_total"`
	RankFailures    int64    `json:"grist_rank_failures_total"`
	CkptEpochs      int64    `json:"grist_checkpoint_epochs_total"`
	SentinelTrips   int64    `json:"grist_sentinel_trips_total"`
	MLFallbacks     int64    `json:"grist_physics_fallback_total"`
	MLOutputsFinite bool     `json:"ml_outputs_finite"`
}

// chaosInit is the shared initial condition: a thermal bubble riding a
// solid-body wind, the same flow the resilience tests integrate.
func chaosInit(s *dycore.State) {
	s.IsothermalRest(295)
	s.AddThermalBubble(0.4, 1.2, 0.25, 4)
	s.AddSolidBodyWind(18)
}

// statesBitwise compares every prognostic field of two states exactly.
func statesBitwise(a, b *dycore.State) bool {
	fields := [][2][]float64{
		{a.DryMass, b.DryMass}, {a.ThetaM, b.ThetaM},
		{a.U, b.U}, {a.W, b.W}, {a.Phi, b.Phi},
	}
	for _, f := range fields {
		for i := range f[0] {
			if math.Float64bits(f[0][i]) != math.Float64bits(f[1][i]) {
				return false
			}
		}
	}
	return true
}

// emptyDir makes dir exist and hold nothing. Every checkpointing leg
// starts from one: core.Run resumes from whatever committed epoch it
// finds, so a directory left by an earlier run would skip the injected
// fault (and shift every per-file fault ordinal) and change the verdict.
func emptyDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

// runChaosLeg runs one resilient integration under plan and compares it
// to the clean reference state.
func runChaosLeg(m *mesh.Mesh, cfg ChaosConfig, mode precision.Mode, clean *dycore.State,
	plan *fault.Plan, dir string, mon *diag.HealthMonitor, reg *telemetry.Registry) ChaosLeg {

	leg := ChaosLeg{Profile: plan.Prof.Name}
	if err := emptyDir(dir); err != nil {
		leg.Err = err.Error()
		return leg
	}
	final, rep, err := core.Run(core.RunSpec{
		Mesh: m, NLev: cfg.NLev, NParts: cfg.NParts, Mode: mode, Init: chaosInit, Steps: cfg.Steps, Dt: 60.0,
		Injector:        plan,
		CheckpointEvery: cfg.CkptEvery, Dir: dir,
		Monitor: mon, Reg: reg,
	})
	if rep != nil {
		leg.Attempts, leg.Recoveries, leg.Events = rep.Legs, rep.Recoveries, rep.Events
	}
	leg.Faults, leg.FaultsExtra = plan.Events()
	if err != nil {
		leg.Err = err.Error()
		return leg
	}
	leg.Bitwise = statesBitwise(final, clean)
	return leg
}

// chaosSamples is a compact synthetic training set for the ML leg (the
// same construction the mlphysics tests train on).
func chaosSamples(n, nlev int, seed int64) []*coarse.Sample {
	rng := rand.New(rand.NewSource(seed))
	var out []*coarse.Sample
	for i := 0; i < n; i++ {
		s := &coarse.Sample{
			U: make([]float64, nlev), V: make([]float64, nlev),
			T: make([]float64, nlev), Q: make([]float64, nlev),
			P: make([]float64, nlev), Q1: make([]float64, nlev), Q2: make([]float64, nlev),
		}
		tSfc := 285 + 20*rng.Float64()
		moist := rng.Float64()
		for k := 0; k < nlev; k++ {
			p := 22500 + float64(k)/float64(nlev-1)*75000
			s.P[k] = p
			s.T[k] = tSfc - 55*math.Log(1e5/p)
			s.Q[k] = moist * 0.02 * math.Pow(p/1e5, 3)
			s.U[k] = 10 * rng.NormFloat64()
			s.V[k] = 5 * rng.NormFloat64()
			s.Q1[k] = 2e-5 * moist * math.Sin(math.Pi*float64(k)/float64(nlev-1))
			s.Q2[k] = -1e-8 * moist * s.Q[k] / 0.02 * 1e3
		}
		s.Tskin = tSfc + 2*rng.NormFloat64()
		s.CosZ = rng.Float64()
		s.Gsw = 1000 * s.CosZ * (1 - 0.3*moist)
		s.Glw = 300 + 150*moist + 2*(s.Tskin-290)
		s.Precip = 20 * moist * moist
		out = append(out, s)
	}
	return out
}

// runMLNaNLeg trains a tiny suite, poisons one inference batch, and
// verifies the scalar fallback keeps every output finite.
func runMLNaNLeg(seed int64, reg *telemetry.Registry) (fallbacks int64, finite bool) {
	const nlev, ncol, calls = 6, 16, 3
	cfg := mlphysics.DefaultTrainConfig()
	cfg.Epochs = 6
	suite, _, _ := mlphysics.Train(chaosSamples(120, nlev, seed), nil, nlev, cfg)
	suite.SetTelemetry(nil, reg)
	suite.SetOutputFault(fault.MLOutputFault(seed, 2))

	in := physics.NewInput(ncol, nlev)
	for c := 0; c < ncol; c++ {
		for k := 0; k < nlev; k++ {
			i := c*nlev + k
			p := 22500 + float64(k)/float64(nlev-1)*75000
			in.P[i], in.Dpi[i] = p, 97750.0/float64(nlev)
			in.T[i] = 295 - 55*math.Log(1e5/p)
			in.Qv[i] = 0.012 * math.Pow(p/1e5, 3)
			in.U[i], in.V[i] = 8*math.Sin(float64(i)), 4*math.Cos(float64(i))
		}
		in.Tskin[c], in.CosZ[c] = 300, 0.5
	}
	finite = true
	for call := 0; call < calls; call++ {
		out := physics.NewOutput(ncol, nlev)
		suite.Compute(in, out, 600)
		for _, xs := range [][]float64{out.Q1, out.Q2, out.Gsw, out.Glw, out.Precip} {
			if diag.NonFiniteCount(xs) > 0 {
				finite = false
			}
		}
	}
	return suite.FallbackCount(), finite
}

// RunChaos runs all three fault legs and returns the distilled result
// plus the sentinel trip history.
func RunChaos(cfg ChaosConfig) (ChaosResult, []diag.HealthEvent) {
	m := mesh.New(cfg.GridLevel).ReorderBFS()
	reg := telemetry.NewRegistry()
	mon := diag.NewHealthMonitor(reg, nil)
	res := ChaosResult{Seed: cfg.Seed}

	// Clean references, one per precision mode the legs integrate in.
	cleanDP := core.RunDistributedDynamics(m, cfg.NLev, cfg.NParts, precision.DP, chaosInit, cfg.Steps, 60.0)
	cleanMix := core.RunDistributedDynamics(m, cfg.NLev, cfg.NParts, precision.Mixed, chaosInit, cfg.Steps, 60.0)

	// Leg 1: rank death -> rollback to the last committed epoch.
	prof, _ := fault.ParseProfile("rankdeath")
	res.RankDeath = runChaosLeg(m, cfg, precision.DP, cleanDP,
		fault.NewPlan(cfg.Seed, prof), filepath.Join(cfg.Dir, "ckpt-rankdeath"), nil, reg)

	// Leg 2: one FP32 bit-flip on a halo payload -> mass sentinel trips,
	// the poisoned leg rolls back, the replay is clean (budget spent).
	res.BitFlip = runChaosLeg(m, cfg, precision.Mixed, cleanMix,
		fault.NewPlan(cfg.Seed, fault.Profile{Name: "bitflip", FlipProb: 1, MaxFlips: 1, KillRank: -1}),
		filepath.Join(cfg.Dir, "ckpt-bitflip"), mon, reg)

	// Leg 3: NaN in an ML inference batch -> scalar-oracle fallback.
	res.MLFallbacks, res.MLOutputsFinite = runMLNaNLeg(cfg.Seed, reg)

	res.RecoveryTotal = reg.Counter("grist_recovery_total").Value()
	res.RankFailures = reg.Counter("grist_rank_failures_total").Value()
	res.CkptEpochs = reg.Counter("grist_checkpoint_epochs_total").Value()
	res.SentinelTrips = mon.TotalTrips()
	return res, mon.Trips()
}

// Rows renders the result as aligned report lines.
func (r ChaosResult) Rows() []string {
	row := func(name string, l ChaosLeg) string {
		status := "bitwise recovery"
		if !l.Bitwise {
			status = "DIVERGED"
		}
		if l.Err != "" {
			status = "FAILED: " + l.Err
		}
		return name + ": " + status +
			" (attempts=" + itoa(l.Attempts) + " recoveries=" + itoa(l.Recoveries) +
			" faults=" + itoa(len(l.Faults)+l.FaultsExtra) + ")"
	}
	ml := "ml nan: scalar fallback x" + itoa(int(r.MLFallbacks))
	if !r.MLOutputsFinite {
		ml = "ml nan: NON-FINITE OUTPUT ESCAPED"
	}
	return []string{
		row("rank death", r.RankDeath),
		row("bit flip", r.BitFlip),
		ml,
		"counters: recoveries=" + itoa(int(r.RecoveryTotal)) +
			" rank failures=" + itoa(int(r.RankFailures)) +
			" ckpt epochs=" + itoa(int(r.CkptEpochs)) +
			" sentinel trips=" + itoa(int(r.SentinelTrips)),
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

// SentinelTrip is the JSON rendering of a health-monitor trip. The
// measured value is formatted as a string: a NaN observation (a mass
// integral poisoned by the injected corruption) is legitimate trip
// evidence but not a legal JSON number.
type SentinelTrip struct {
	Sentinel  string  `json:"sentinel"`
	Step      int64   `json:"step"`
	Value     string  `json:"value"`
	Threshold float64 `json:"threshold"`
	Detail    string  `json:"detail"`
}

// WriteChaos runs the default chaos experiment under dir and writes
// CHAOS_recovery.json and CHAOS_sentinels.json there.
func WriteChaos(dir string) (ChaosResult, error) {
	cfg := DefaultChaosConfig()
	cfg.Dir = dir
	return WriteChaosConfig(cfg)
}

// WriteChaosConfig is WriteChaos with an explicit configuration; the
// artifacts land in cfg.Dir.
func WriteChaosConfig(cfg ChaosConfig) (ChaosResult, error) {
	res, trips := RunChaos(cfg)
	hist := make([]SentinelTrip, 0, len(trips))
	for _, ev := range trips {
		hist = append(hist, SentinelTrip{
			Sentinel: ev.Sentinel, Step: ev.Step,
			Value:     strconv.FormatFloat(ev.Value, 'g', -1, 64),
			Threshold: ev.Threshold, Detail: ev.Detail,
		})
	}
	for name, v := range map[string]any{
		"CHAOS_recovery.json":  res,
		"CHAOS_sentinels.json": hist,
	} {
		buf, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return res, err
		}
		if err := os.WriteFile(filepath.Join(cfg.Dir, name), append(buf, '\n'), 0o644); err != nil {
			return res, err
		}
	}
	return res, nil
}
