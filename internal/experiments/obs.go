package experiments

// Observability experiment: the cross-rank trace pipeline exercised end
// to end, distilled into BENCH_obs.json for the CI regression gate.
//
// Two claims are measured:
//
//   - postmortem_deterministic: over one fixed set of per-rank flight
//     rings, obs.Merge + obs.Build + JSON encode run twice must be
//     byte-identical — the critical path, straggler ranking and phase
//     attribution depend only on ring contents, never on map order or
//     the wall clock at analysis time.
//
//   - attributed_improves: two rebalanced runs start from the same
//     deliberately skewed decomposition (half the mesh carries 8x cell
//     weight, so one rank owns roughly half the cells). The gauge leg
//     feeds raw per-rank leg walls back into the partitioner; under
//     lockstep synchronization walls equalize — peers absorb the
//     straggler's excess as halo wait — so equal walls over unequal
//     cell counts reproduce the skew. The span leg feeds attributed
//     compute (wall minus measured halo wait), which localizes the
//     real load, so its final measured compute imbalance must come out
//     lower than the gauge leg's.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gristgo/internal/core"
	"gristgo/internal/dycore"
	"gristgo/internal/mesh"
	"gristgo/internal/obs"
	"gristgo/internal/precision"
	"gristgo/internal/telemetry"
)

// ObsBenchConfig drives the observability benchmark.
type ObsBenchConfig struct {
	GridLevel int
	NLev      int
	Parts     int
	Steps     int
	// RebalanceAt lists the repartition boundaries of both legs.
	RebalanceAt []int
}

// DefaultObsBenchConfig returns the CI-scale setup: level-5 mesh, four
// ranks, two repartitions over eight steps. Level 5 is the floor at
// which per-step compute dominates channel synchronization overhead;
// below it the wall−wait signal drowns in scheduling noise and neither
// weighting can demonstrate anything.
func DefaultObsBenchConfig() ObsBenchConfig {
	return ObsBenchConfig{GridLevel: 5, NLev: 8, Parts: 4, Steps: 8,
		RebalanceAt: []int{3, 6}}
}

// ObsBenchResult is the JSON payload of BENCH_obs.json.
type ObsBenchResult struct {
	Steps int `json:"steps"`
	Parts int `json:"parts"`

	// Final measured compute imbalance (max/mean of per-rank wall−wait
	// over the last leg) of the wall-weighted and span-weighted runs.
	GaugeImbalance      float64 `json:"gauge_final_imbalance"`
	AttributedImbalance float64 `json:"attributed_final_imbalance"`
	AttributedImproves  bool    `json:"attributed_improves"`

	RepartitionsApplied int `json:"repartitions_applied"`

	// Postmortem replay identity and headline numbers from the span run.
	PostmortemDeterministic bool    `json:"postmortem_deterministic"`
	StepsMerged             int     `json:"steps_merged"`
	SpansMerged             int     `json:"spans_merged"`
	SpansDropped            uint64  `json:"spans_dropped"`
	CriticalPathNS          int64   `json:"critical_path_ns"`
	CritWaitShare           float64 `json:"crit_wait_share"`
}

// skewWeights returns per-cell weights that deliberately unbalance the
// seed decomposition: the first half of the BFS-ordered mesh carries 8x
// weight, so the partitioner hands roughly half the cells to one rank.
func skewWeights(ncells int) []int32 {
	w := make([]int32, ncells)
	for c := range w {
		if c < ncells/2 {
			w[c] = 8
		} else {
			w[c] = 1
		}
	}
	return w
}

// RunObsBench runs both legs and the replay check, returning the result
// plus the merged timeline and postmortem of the span-weighted run for
// artifact export.
func RunObsBench(cfg ObsBenchConfig) (ObsBenchResult, *obs.Timeline, *obs.Postmortem) {
	m := mesh.New(cfg.GridLevel).ReorderBFS()
	initFn := func(s *dycore.State) {
		s.IsothermalRest(290)
		s.AddSolidBodyWind(15)
	}
	skew := skewWeights(m.NCells)

	spec := core.RunSpec{
		Mesh: m, NLev: cfg.NLev, NParts: cfg.Parts, Mode: precision.Mixed, Init: initFn, Steps: cfg.Steps, Dt: 60,
		RebalanceAt: cfg.RebalanceAt, InitialWeights: skew,
	}

	// Leg 1: wall-weighted (the raw imbalance-gauge signal).
	_, gaugeRep := core.MustRun(spec)

	// Leg 2: span-weighted, with per-rank flight recorders attached so
	// the same run feeds the postmortem pipeline.
	reg := telemetry.NewRegistry()
	recs := make([]*telemetry.Recorder, cfg.Parts)
	for p := range recs {
		recs[p] = telemetry.NewRecorder(1 << 14)
	}
	spec.Attributed, spec.Reg, spec.Recs = true, reg, recs
	_, attrRep := core.MustRun(spec)

	// Replay identity: merge the rings once, build + encode twice.
	rings, dropped := obs.Rings(recs...)
	t := obs.Merge(rings, dropped)
	var a, b bytes.Buffer
	obs.Build(t, 3).EncodeJSON(&a)
	pm := obs.Build(t, 3)
	pm.EncodeJSON(&b)

	critNS, waitShare, spans := pathTotals(pm)
	return ObsBenchResult{
		Steps:                   cfg.Steps,
		Parts:                   cfg.Parts,
		GaugeImbalance:          gaugeRep.FinalImbalance,
		AttributedImbalance:     attrRep.FinalImbalance,
		AttributedImproves:      attrRep.FinalImbalance < gaugeRep.FinalImbalance,
		RepartitionsApplied:     attrRep.Rebalances,
		PostmortemDeterministic: bytes.Equal(a.Bytes(), b.Bytes()),
		StepsMerged:             len(pm.Steps),
		SpansMerged:             spans,
		SpansDropped:            pm.Dropped,
		CriticalPathNS:          critNS,
		CritWaitShare:           waitShare,
	}, t, pm
}

// pathTotals sums the postmortem's critical-path work (CriticalNS:
// compute + comm, waits weighing zero) and merged spans, and returns the
// wait's share of the paths' full time, work plus the wait they traverse.
func pathTotals(pm *obs.Postmortem) (workNS int64, waitShare float64, spans int) {
	var waitNS int64
	for _, st := range pm.Steps {
		workNS += st.CriticalNS
		waitNS += st.CritWaitNS
		for _, ra := range st.Ranks {
			spans += ra.Spans
		}
	}
	if workNS+waitNS > 0 {
		waitShare = float64(waitNS) / float64(workNS+waitNS)
	}
	return workNS, waitShare, spans
}

// Rows renders the result as aligned report lines.
func (r ObsBenchResult) Rows() []string {
	return []string{
		fmt.Sprintf("ranks=%d steps=%d  repartitions applied=%d", r.Parts, r.Steps, r.RepartitionsApplied),
		fmt.Sprintf("final compute imbalance: wall-weighted=%.3f span-weighted=%.3f improves=%v",
			r.GaugeImbalance, r.AttributedImbalance, r.AttributedImproves),
		fmt.Sprintf("postmortem: deterministic=%v steps=%d spans=%d dropped=%d crit=%.3fms wait-share=%.1f%%",
			r.PostmortemDeterministic, r.StepsMerged, r.SpansMerged, r.SpansDropped,
			float64(r.CriticalPathNS)/1e6, 100*r.CritWaitShare),
	}
}

// WriteObsBench runs the default benchmark and writes BENCH_obs.json,
// the step postmortem BENCH_obs_postmortem.json and the merged
// multi-rank Chrome trace BENCH_obs_trace.json into dir.
func WriteObsBench(dir string) (ObsBenchResult, error) {
	res, t, pm := RunObsBench(DefaultObsBenchConfig())
	buf, err := json.MarshalIndent(res, "", "  ")
	var post, trace bytes.Buffer
	if err == nil {
		err = pm.EncodeJSON(&post)
	}
	if err == nil {
		err = t.WriteChromeTrace(&trace, pm)
	}
	for name, data := range map[string][]byte{"BENCH_obs.json": append(buf, '\n'),
		"BENCH_obs_postmortem.json": post.Bytes(), "BENCH_obs_trace.json": trace.Bytes()} {
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, name), data, 0o644)
		}
	}
	return res, err
}
