package experiments

// Elastic-membership experiment: the run-time decomposition exercised
// end to end, distilled into CHAOS_elastic.json for the CI chaos job.
// The scenario is "shrinkgrow": node 1 is killed mid-run, the world
// repartitions over the three survivors and continues from the
// redistributed checkpoint shards, then a scheduled grow re-absorbs a
// fourth node — the world is never restarted from step 0.
//
// Four legs cover the acceptance matrix: DP and mixed precision, each
// with overlapped and blocking halo rounds.
//
//   - DP legs must finish BITWISE identical to an uninjected
//     plain run: per-entity kernels with mesh-ordered stencils plus
//     exact mirrors at step boundaries make DP results decomposition-
//     invariant, so three decomposition epochs leave no trace.
//   - Mixed legs round halo mirrors to FP32 on the wire, so the mirror
//     sets — and the rounding — are decomposition-dependent: bitwise
//     identity is not expected, but the §3.4 5% ps/vor gate must hold.
//   - Overlap vs blocking must stay bitwise identical WITHIN each mode
//     after every repartition (the PR 2 parity invariant, now under a
//     decomposition that changes mid-run).
//
// The grow leg must also measurably reduce the capacity-relative load
// imbalance (the PR 4 gauge): three nodes doing four nodes' work read
// ~4/3, the re-grown world reads ~1.

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"gristgo/internal/core"
	"gristgo/internal/dycore"
	"gristgo/internal/fault"
	"gristgo/internal/mesh"
	"gristgo/internal/precision"
	"gristgo/internal/telemetry"
)

// ElasticConfig drives the elastic experiment.
type ElasticConfig struct {
	GridLevel int
	NLev      int
	NParts    int
	Steps     int
	CkptEvery int
	KillNode  int // node killed mid-run (stable node id)
	KillStep  int
	GrowStep  int // step of the scheduled re-grow
	GrowAdd   int
	Seed      int64
	Dir       string // scratch + artifact directory
}

// DefaultElasticConfig returns the CI-scale shrinkgrow setup: kill node
// 1 at step 4, grow back to four nodes at step 8.
func DefaultElasticConfig() ElasticConfig {
	return ElasticConfig{
		GridLevel: 3, NLev: 4, NParts: 4, Steps: 12, CkptEvery: 2,
		KillNode: 1, KillStep: 4, GrowStep: 8, GrowAdd: 1, Seed: 7,
	}
}

// ElasticLeg is one (mode, halo style) run of the shrinkgrow scenario.
type ElasticLeg struct {
	Mode            string          `json:"mode"`    // "DP" or "MIX"
	Overlap         bool            `json:"overlap"` // overlapped halo rounds (false: blocking)
	Bitwise         bool            `json:"bitwise_vs_clean"`
	PsRelErr        float64         `json:"ps_rel_err"`
	VorRelErr       float64         `json:"vor_rel_err"`
	WithinGate      bool            `json:"within_gate"` // both errors under 5% (§3.4)
	WorldSizes      []int           `json:"world_sizes"`
	Reshapes        []core.RunEvent `json:"reshapes,omitempty"`
	FinalMembers    []int           `json:"final_members"`
	FinalEpoch      int             `json:"final_epoch"`
	ImbalanceShrunk float64         `json:"imbalance_shrunk"`
	ImbalanceGrown  float64         `json:"imbalance_grown"`
	Err             string          `json:"error,omitempty"`
}

// ElasticResult is the JSON payload of CHAOS_elastic.json.
type ElasticResult struct {
	Seed       int64      `json:"seed"`
	DP         ElasticLeg `json:"dp"`
	DPBlocking ElasticLeg `json:"dp_blocking"`
	Mixed      ElasticLeg `json:"mixed"`
	MixedBlock ElasticLeg `json:"mixed_blocking"`

	// Overlap-vs-blocking bitwise parity within each mode, across all
	// three decomposition epochs.
	ParityDP    bool `json:"overlap_blocking_bitwise_dp"`
	ParityMixed bool `json:"overlap_blocking_bitwise_mixed"`

	// The grow must reduce the capacity-relative imbalance in every leg.
	ImbalanceReduced bool `json:"imbalance_reduced_by_grow"`

	RepartitionTotal int64 `json:"grist_repartition_total"`
	RankFailures     int64 `json:"grist_rank_failures_total"`
	CkptEpochs       int64 `json:"grist_checkpoint_epochs_total"`
}

// elasticGate is the §3.4.1 error threshold.
const elasticGate = 0.05

// elasticRelL2 is the relative L2 error — the same metric the accuracy
// gates use.
func elasticRelL2(a, ref []float64) float64 {
	var num, den float64
	for i := range a {
		d := a[i] - ref[i]
		num += d * d
		den += ref[i] * ref[i]
	}
	return math.Sqrt(num / den)
}

// runElasticLeg runs the shrinkgrow scenario once and scores it against
// the same-mode clean reference. Each leg gets a fresh fault plan (the
// kill is one-shot per plan) and its own checkpoint directory.
func runElasticLeg(m *mesh.Mesh, cfg ElasticConfig, mode precision.Mode, overlap bool,
	clean *dycore.State, dir string, reg *telemetry.Registry) (ElasticLeg, *dycore.State) {

	leg := ElasticLeg{Mode: mode.String(), Overlap: overlap}
	if err := emptyDir(dir); err != nil {
		leg.Err = err.Error()
		return leg, nil
	}
	plan := fault.NewPlan(cfg.Seed, fault.Profile{
		Name: "shrinkgrow", KillRank: cfg.KillNode, KillStep: cfg.KillStep,
	})
	final, rep, err := core.Run(core.RunSpec{
		Mesh: m, NLev: cfg.NLev, NParts: cfg.NParts, Mode: mode, Init: chaosInit, Steps: cfg.Steps, Dt: 60.0,
		OnDeath: core.Shrink, Injector: plan,
		CheckpointEvery: cfg.CkptEvery, Dir: dir,
		Grow:     []core.GrowEvent{{Step: cfg.GrowStep, Add: cfg.GrowAdd}},
		Blocking: !overlap, Reg: reg,
	})
	if rep != nil {
		leg.WorldSizes, leg.Reshapes = rep.WorldSizes, rep.Events
		leg.FinalMembers, leg.FinalEpoch = rep.FinalMembers, rep.FinalEpoch
		if len(rep.LegImbalance) >= 2 {
			leg.ImbalanceShrunk = rep.LegImbalance[1]
			leg.ImbalanceGrown = rep.LegImbalance[len(rep.LegImbalance)-1]
		}
	}
	if err != nil {
		leg.Err = err.Error()
		return leg, nil
	}
	leg.Bitwise = statesBitwise(final, clean)
	leg.PsRelErr = elasticRelL2(final.SurfacePressure(), clean.SurfacePressure())
	leg.VorRelErr = elasticRelL2(
		dycore.NewFromState(final, precision.DP).VorticityAtLevel(2),
		dycore.NewFromState(clean, precision.DP).VorticityAtLevel(2))
	leg.WithinGate = leg.PsRelErr <= elasticGate && leg.VorRelErr <= elasticGate
	return leg, final
}

// RunElastic runs the four shrinkgrow legs and returns the distilled
// result.
func RunElastic(cfg ElasticConfig) ElasticResult {
	m := mesh.New(cfg.GridLevel).ReorderBFS()
	reg := telemetry.NewRegistry()
	res := ElasticResult{Seed: cfg.Seed}

	cleanDP := core.RunDistributedDynamics(m, cfg.NLev, cfg.NParts, precision.DP, chaosInit, cfg.Steps, 60.0)
	cleanMix := core.RunDistributedDynamics(m, cfg.NLev, cfg.NParts, precision.Mixed, chaosInit, cfg.Steps, 60.0)

	var dpOv, dpBl, mixOv, mixBl *dycore.State
	res.DP, dpOv = runElasticLeg(m, cfg, precision.DP, true, cleanDP,
		filepath.Join(cfg.Dir, "ckpt-elastic-dp"), reg)
	res.DPBlocking, dpBl = runElasticLeg(m, cfg, precision.DP, false, cleanDP,
		filepath.Join(cfg.Dir, "ckpt-elastic-dp-blocking"), reg)
	res.Mixed, mixOv = runElasticLeg(m, cfg, precision.Mixed, true, cleanMix,
		filepath.Join(cfg.Dir, "ckpt-elastic-mix"), reg)
	res.MixedBlock, mixBl = runElasticLeg(m, cfg, precision.Mixed, false, cleanMix,
		filepath.Join(cfg.Dir, "ckpt-elastic-mix-blocking"), reg)

	res.ParityDP = dpOv != nil && dpBl != nil && statesBitwise(dpOv, dpBl)
	res.ParityMixed = mixOv != nil && mixBl != nil && statesBitwise(mixOv, mixBl)
	res.ImbalanceReduced = true
	for _, leg := range []ElasticLeg{res.DP, res.DPBlocking, res.Mixed, res.MixedBlock} {
		if leg.Err != "" || leg.ImbalanceShrunk < leg.ImbalanceGrown+0.2 {
			res.ImbalanceReduced = false
		}
	}
	res.RepartitionTotal = reg.Counter("grist_repartition_total").Value()
	res.RankFailures = reg.Counter("grist_rank_failures_total").Value()
	res.CkptEpochs = reg.Counter("grist_checkpoint_epochs_total").Value()
	return res
}

// Rows renders the result as aligned report lines.
func (r ElasticResult) Rows() []string {
	row := func(name string, l ElasticLeg, wantBitwise bool) string {
		status := "within 5% gate"
		if l.Bitwise {
			status = "bitwise vs clean"
		} else if wantBitwise {
			status = "DIVERGED (bitwise expected)"
		} else if !l.WithinGate {
			status = "GATE EXCEEDED"
		}
		if l.Err != "" {
			status = "FAILED: " + l.Err
		}
		return name + ": " + status +
			" (worlds=" + itoaSlice(l.WorldSizes) +
			" imbalance " + ftoa(l.ImbalanceShrunk) + "->" + ftoa(l.ImbalanceGrown) + ")"
	}
	parity := func(name string, ok bool) string {
		if ok {
			return name + ": overlap == blocking bitwise"
		}
		return name + ": OVERLAP/BLOCKING PARITY BROKEN"
	}
	return []string{
		row("elastic dp", r.DP, true),
		row("elastic dp/blocking", r.DPBlocking, true),
		row("elastic mixed", r.Mixed, false),
		row("elastic mixed/blocking", r.MixedBlock, false),
		parity("parity dp", r.ParityDP),
		parity("parity mixed", r.ParityMixed),
		"counters: repartitions=" + itoa(int(r.RepartitionTotal)) +
			" rank failures=" + itoa(int(r.RankFailures)) +
			" ckpt epochs=" + itoa(int(r.CkptEpochs)),
	}
}

func itoaSlice(xs []int) string {
	out := "["
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += itoa(x)
	}
	return out + "]"
}

func ftoa(x float64) string {
	return strconv.FormatFloat(x, 'f', 2, 64)
}

// WriteElastic runs the default elastic experiment under dir and writes
// CHAOS_elastic.json there.
func WriteElastic(dir string) (ElasticResult, error) {
	cfg := DefaultElasticConfig()
	cfg.Dir = dir
	return WriteElasticConfig(cfg)
}

// WriteElasticConfig is WriteElastic with an explicit configuration.
func WriteElasticConfig(cfg ElasticConfig) (ElasticResult, error) {
	res := RunElastic(cfg)
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return res, err
	}
	return res, os.WriteFile(filepath.Join(cfg.Dir, "CHAOS_elastic.json"), append(buf, '\n'), 0o644)
}
