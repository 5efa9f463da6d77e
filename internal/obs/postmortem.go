package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// RankAttribution is one rank's phase breakdown for one step. WallNS is
// the rank's dyn_step/physics_step container when present, else the sum
// of its leaves; Compute/Comm/Wait partition the leaf time by PhaseOf.
// Under lockstep synchronization per-rank walls equalize — peers absorb
// a straggler's excess as halo_wait — so ComputeNS (wall minus the
// waiting) is the number that localizes load, and is what the
// span-weighted rebalancer feeds back into the partitioner.
type RankAttribution struct {
	Rank      int32 `json:"rank"`
	WallNS    int64 `json:"wall_ns"`
	ComputeNS int64 `json:"compute_ns"`
	CommNS    int64 `json:"comm_ns"`
	WaitNS    int64 `json:"wait_ns"`
	Spans     int   `json:"spans"`
}

// Straggler is one of a step's top-k slowest ranks by wall time, with
// its excess over the step's mean rank wall.
type Straggler struct {
	Rank        int32 `json:"rank"`
	WallNS      int64 `json:"wall_ns"`
	AboveMeanNS int64 `json:"above_mean_ns"`
}

// StepReport is the postmortem of one model step: per-rank attribution,
// the critical path with its own phase split, the wall-time imbalance
// ratio (max/mean) and its delta against the previous step, and the
// straggler ranking.
type StepReport struct {
	Step           int64             `json:"step"`
	Ranks          []RankAttribution `json:"ranks"`
	CriticalNS     int64             `json:"critical_ns"`
	CritComputeNS  int64             `json:"critical_compute_ns"`
	CritCommNS     int64             `json:"critical_comm_ns"`
	CritWaitNS     int64             `json:"critical_wait_ns"`
	CriticalPath   []PathSpan        `json:"critical_path"`
	Imbalance      float64           `json:"imbalance"`
	ImbalanceDelta float64           `json:"imbalance_delta"`
	Stragglers     []Straggler       `json:"stragglers,omitempty"`

	// Incomplete marks a step whose data is partial — a rank's spans
	// were overwritten by ring wrap or never recorded — so attribution
	// undercounts and the critical path may be truncated.
	Incomplete bool `json:"incomplete,omitempty"`
}

// Postmortem is the full report over a merged timeline.
type Postmortem struct {
	Ranks    int          `json:"ranks"`
	Steps    []StepReport `json:"steps"`
	Dropped  uint64       `json:"dropped_spans"`
	Warnings []string     `json:"warnings,omitempty"`
}

// Build derives the postmortem from a merged timeline, keeping at most
// topK stragglers per step (only ranks above the mean wall qualify).
// Deterministic: a pure function of the timeline, so replays over the
// same rings encode byte-identically.
func Build(t *Timeline, topK int) *Postmortem {
	pm := &Postmortem{Ranks: len(t.Ranks), Dropped: t.Dropped}
	prevImb := 0.0
	for si := range t.Steps {
		st := &t.Steps[si]
		rep := StepReport{Step: st.Step}
		var sumWall, maxWall int64
		for _, rs := range st.Ranks {
			a := RankAttribution{Rank: rs.Rank, Spans: len(rs.Spans)}
			var container, leafSum int64
			for _, sp := range rs.Spans {
				switch PhaseOf(sp.Name) {
				case PhaseCompute:
					a.ComputeNS += sp.Dur
				case PhaseComm:
					a.CommNS += sp.Dur
				case PhaseWait:
					a.WaitNS += sp.Dur
				case PhaseContainer:
					if sp.Name == "dyn_step" || sp.Name == "physics_step" {
						container += sp.Dur
					}
					continue
				}
				leafSum += sp.Dur
			}
			a.WallNS = container
			if a.WallNS == 0 {
				a.WallNS = leafSum
			}
			rep.Ranks = append(rep.Ranks, a)
			sumWall += a.WallNS
			if a.WallNS > maxWall {
				maxWall = a.WallNS
			}
		}
		if sumWall > 0 && len(rep.Ranks) > 0 {
			rep.Imbalance = float64(maxWall) * float64(len(rep.Ranks)) / float64(sumWall)
		}
		if si > 0 {
			rep.ImbalanceDelta = rep.Imbalance - prevImb
		}
		prevImb = rep.Imbalance

		// A step is suspect when a rank the timeline knows about has no
		// spans here, or when ring wrap ate the oldest history (the first
		// retained step is where truncation lands).
		if len(st.Ranks) < len(t.Ranks) || (t.Dropped > 0 && si == 0) {
			rep.Incomplete = true
		}

		if topK > 0 && len(rep.Ranks) > 1 {
			mean := sumWall / int64(len(rep.Ranks))
			order := make([]int, len(rep.Ranks))
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(i, j int) bool {
				a, b := rep.Ranks[order[i]], rep.Ranks[order[j]]
				if a.WallNS != b.WallNS {
					return a.WallNS > b.WallNS
				}
				return a.Rank < b.Rank
			})
			for _, oi := range order {
				a := rep.Ranks[oi]
				if len(rep.Stragglers) >= topK || a.WallNS <= mean {
					break
				}
				rep.Stragglers = append(rep.Stragglers, Straggler{
					Rank: a.Rank, WallNS: a.WallNS, AboveMeanNS: a.WallNS - mean,
				})
			}
		}

		cp, total := CriticalPath(st)
		rep.CriticalPath = cp
		rep.CriticalNS = total
		for _, h := range cp {
			switch PhaseOf(h.Name) {
			case PhaseCompute:
				rep.CritComputeNS += h.DurNS
			case PhaseComm:
				rep.CritCommNS += h.DurNS
			case PhaseWait:
				rep.CritWaitNS += h.DurNS
			}
		}

		pm.Steps = append(pm.Steps, rep)
	}
	if t.Dropped > 0 {
		pm.Warnings = append(pm.Warnings, fmt.Sprintf(
			"flight recorder dropped %d spans to ring wrap; the oldest retained steps are truncated and their attribution undercounts", t.Dropped))
	}
	if t.Unstepped > 0 {
		pm.Warnings = append(pm.Warnings, fmt.Sprintf(
			"%d spans carried no step attribution and were excluded from the merge", t.Unstepped))
	}
	return pm
}

// ComputeWeights returns the per-rank compute-time shares (summed over
// every complete step, normalized to mean 1.0) in t.Ranks order — the
// measured-cost vector the span-weighted rebalancer feeds into the
// partitioner. Wall time is the wrong signal here: under lockstep
// synchronization every rank's wall converges to the straggler's, so
// walls say "all equal" while compute time localizes the actual load.
// Returns nil when the timeline has no complete attributed step.
func (p *Postmortem) ComputeWeights(t *Timeline) []float64 {
	if len(t.Ranks) == 0 {
		return nil
	}
	idx := make(map[int32]int)
	for i, r := range t.Ranks {
		idx[r] = i
	}
	sums := make([]float64, len(t.Ranks))
	steps := 0
	for _, rep := range p.Steps {
		if rep.Incomplete {
			continue
		}
		steps++
		for _, a := range rep.Ranks {
			sums[idx[a.Rank]] += float64(a.ComputeNS)
		}
	}
	if steps == 0 {
		return nil
	}
	var total float64
	for _, s := range sums {
		total += s
	}
	if total <= 0 {
		return nil
	}
	mean := total / float64(len(sums))
	for i := range sums {
		sums[i] /= mean
	}
	return sums
}

// EncodeJSON writes the postmortem as indented JSON. Field order is
// struct order and every slice is deterministically ordered, so
// identical timelines encode byte-identically — the property the
// determinism experiment asserts.
func (p *Postmortem) EncodeJSON(w io.Writer) error {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
