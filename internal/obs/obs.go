// Package obs is the cross-rank trace aggregation layer: it merges the
// per-rank flight-recorder rings of a distributed run into one global
// per-step timeline, reconstructs the step's dependency structure from
// the halo pack/wait span pairs, and derives the artifacts a performance
// postmortem needs — the critical path through the step, per-rank
// compute/comm/wait attribution, straggler rankings, and a merged
// multi-rank Chrome trace.
//
// The split of labor with internal/telemetry is deliberate: the
// Recorder is the allocation-free hot-path sink (one ring per process,
// spans stamped with rank and step), while obs is the cold-path
// analysis that runs after (or beside) the step loop. Nothing here is
// called from a hot path, and nothing here feeds state back into the
// model — but the analysis itself is bitwise-deterministic: two replays
// over the same rings produce byte-identical postmortems, because the
// rebalance planner consumes the attributed costs and every rank must
// agree on the plan (core's TestBitwiseRootsReproduce holds Merge,
// CriticalPath, Build and ComputeWeights to it).
//
// Alignment model: spans from different rings come from different
// recorder epochs, so raw Start values are not comparable across rings.
// The merge aligns globally by *step number* (the SPMD loop index every
// rank stamps via Recorder.BeginAt) and normalizes Start per ring to
// the ring's first retained span, which is enough for human-readable
// merged traces. The critical path uses durations and the pack/wait
// pairing, plus one cross-ring comparison: a peer's pack counts as a
// wait's dependency only if it started before the wait ended. Whatever
// the rings' offsets, that keeps the dependency graph acyclic; where
// they differ (rings that lost different amounts of history) it can
// drop a true dependency, never close a cycle.
package obs

import (
	"sort"

	"gristgo/internal/telemetry"
)

// Phase classifies a span name into the postmortem's attribution
// buckets: compute, communication (pack/serialize work), wait (blocked
// on a peer's progress), or container (an enclosing span whose time is
// already covered by its leaves).
type Phase uint8

const (
	PhaseCompute Phase = iota
	PhaseComm
	PhaseWait
	PhaseContainer
)

// String names the phase for logs and JSON-adjacent output.
func (p Phase) String() string {
	switch p {
	case PhaseCompute:
		return "compute"
	case PhaseComm:
		return "comm"
	case PhaseWait:
		return "wait"
	case PhaseContainer:
		return "container"
	}
	return "unknown"
}

// PhaseOf maps the span taxonomy of the dynamics step to phases:
// halo_wait is pure wait (the receiver blocked on a peer), pack/unpack
// are communication work, the step/section wrappers are containers, and
// everything else — interior, boundary, implicit_vertical, kernels we
// have not met yet — counts as compute. Unknown names default to
// compute rather than container so a new leaf kernel is attributed
// (possibly coarsely) instead of silently dropped.
func PhaseOf(name string) Phase {
	switch name {
	case "halo_wait":
		return PhaseWait
	case "halo_pack", "halo_unpack":
		return PhaseComm
	case "dyn_step", "physics_step", "halo_start", "halo_finish":
		return PhaseContainer
	}
	return PhaseCompute
}

// Span is one completed span in the merged timeline. Start is
// nanoseconds since the source ring's first retained span (per-ring
// normalization; see the package comment for the one place starts are
// compared across rings). Index is the k-th occurrence (0-based) of Name
// within this (rank, step) group in ring order — the occurrence number
// is what pairs a halo_wait with the matching halo_pack round.
type Span struct {
	Name  string
	Ring  int // index of the source ring passed to Merge
	Rank  int32
	Step  int64
	Start int64
	Dur   int64
	Index int
}

// RankStep is one rank's spans for one step, in ring (completion)
// order: a container's children precede it, and sibling leaves are
// chronological because a rank executes its step sequentially.
type RankStep struct {
	Rank  int32
	Spans []Span
}

// StepTimeline is one model step across all ranks, ranks ascending.
type StepTimeline struct {
	Step  int64
	Ranks []RankStep
}

// Timeline is the merged view over every ring: steps ascending, each
// holding per-rank span groups.
type Timeline struct {
	Steps []StepTimeline

	// Ranks is the sorted set of ranks seen anywhere in the timeline.
	Ranks []int32

	// Dropped sums the ring-wrap drop counts reported to Merge. Nonzero
	// means the oldest retained steps are partial: Build flags them
	// Incomplete and attaches a warning instead of reporting confident
	// attribution over truncated data.
	Dropped uint64

	// Unstepped counts events with step <= 0 — spans recorded outside
	// the stamped step loop (serial warmup, the serve poller) that carry
	// no step attribution and are excluded from the merge.
	Unstepped int
}

// Merge folds per-rank rings into the global per-step timeline. The
// result is a pure function of (rings, dropped): grouping uses
// collect-and-sort, never map order, so every rank replaying the same
// rings reconstructs the identical timeline.
func Merge(rings [][]telemetry.Event, dropped uint64) *Timeline {
	type key struct {
		step int64
		rank int32
	}
	groups := make(map[key][]Span)
	var keys []key
	rankSeen := make(map[int32]bool)
	var ranks []int32
	unstepped := 0
	for ri, ring := range rings {
		// Normalize to the ring's own epoch: the earliest retained start.
		var off int64
		first := true
		for _, ev := range ring {
			if ev.Step > 0 && (first || ev.Start < off) {
				off, first = ev.Start, false
			}
		}
		for _, ev := range ring {
			if ev.Step <= 0 {
				unstepped++
				continue
			}
			k := key{ev.Step, ev.Rank}
			if _, ok := groups[k]; !ok {
				keys = append(keys, k)
			}
			groups[k] = append(groups[k], Span{
				Name:  ev.Name,
				Ring:  ri,
				Rank:  ev.Rank,
				Step:  ev.Step,
				Start: ev.Start - off,
				Dur:   ev.Dur,
			})
			if !rankSeen[ev.Rank] {
				rankSeen[ev.Rank] = true
				ranks = append(ranks, ev.Rank)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].step != keys[j].step {
			return keys[i].step < keys[j].step
		}
		return keys[i].rank < keys[j].rank
	})
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })

	t := &Timeline{Ranks: ranks, Dropped: dropped, Unstepped: unstepped}
	for _, k := range keys {
		spans := groups[k]
		counts := make(map[string]int)
		for i := range spans {
			spans[i].Index = counts[spans[i].Name]
			counts[spans[i].Name]++
		}
		n := len(t.Steps)
		if n == 0 || t.Steps[n-1].Step != k.step {
			t.Steps = append(t.Steps, StepTimeline{Step: k.step})
			n++
		}
		st := &t.Steps[n-1]
		st.Ranks = append(st.Ranks, RankStep{Rank: k.rank, Spans: spans})
	}
	return t
}

// Rings snapshots a set of per-rank recorders into the ring slices and
// summed drop count Merge consumes. Recorders keep running; the
// snapshot is a consistent copy per ring (not across rings — alignment
// is by step, as everywhere in this package).
func Rings(recs ...*telemetry.Recorder) ([][]telemetry.Event, uint64) {
	rings := make([][]telemetry.Event, len(recs))
	var dropped uint64
	for i, r := range recs {
		rings[i] = r.Snapshot()
		dropped += r.Dropped()
	}
	return rings, dropped
}
