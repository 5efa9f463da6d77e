package experiments

import (
	"testing"

	"gristgo/internal/obs"
	"gristgo/internal/telemetry"
)

// TestObsBenchSmallScale exercises the full obs pipeline at a scale
// cheap enough for the tier-1 suite: structure, the replay-identity
// invariant and a loss-free ring merge. Whether the span-attributed run
// ends less imbalanced than the wall-weighted one reads wall clocks, so
// no test asserts it; `gristbench -exp obs` prints it as an ungated
// reading, and partition's TestCostWeightsComputeFedPlanUndoesSkew holds
// its deterministic half (compute-fed costs undo a skew that wall-fed
// costs keep).
func TestObsBenchSmallScale(t *testing.T) {
	cfg := ObsBenchConfig{GridLevel: 3, NLev: 4, Parts: 3, Steps: 4,
		RebalanceAt: []int{2}}
	res, tl, pm := RunObsBench(cfg)
	if !res.PostmortemDeterministic {
		t.Fatal("postmortem replay was not byte-identical")
	}
	if res.StepsMerged != cfg.Steps {
		t.Fatalf("steps merged = %d, want %d", res.StepsMerged, cfg.Steps)
	}
	if res.RepartitionsApplied != 1 {
		t.Fatalf("repartitions applied = %d, want 1", res.RepartitionsApplied)
	}
	if res.SpansMerged == 0 || res.CriticalPathNS <= 0 {
		t.Fatalf("empty postmortem: %+v", res)
	}
	if res.SpansDropped != 0 {
		t.Fatalf("%d spans dropped: the flight rings overflowed, so the postmortem misses work", res.SpansDropped)
	}
	if len(tl.Ranks) != cfg.Parts {
		t.Fatalf("timeline ranks = %v, want %d", tl.Ranks, cfg.Parts)
	}
	for _, st := range pm.Steps {
		if len(st.CriticalPath) == 0 {
			t.Fatalf("step %d has no critical path", st.Step)
		}
		if st.Imbalance < 1 {
			t.Fatalf("step %d imbalance %.3f < 1", st.Step, st.Imbalance)
		}
	}
}

// A step whose critical path waits longer than it works: two ranks each
// run pack, interior, a long halo wait, unpack and boundary. The wait
// share is wait over the path's full time (work plus wait), so it stays
// a share; wait over work alone would read 5 here.
func TestCritWaitShareIsAShare(t *testing.T) {
	var rings [][]telemetry.Event
	for rank := int32(0); rank < 2; rank++ {
		var ring []telemetry.Event
		start := int64(0)
		for _, sp := range []telemetry.Event{
			{Name: "halo_pack", Dur: 5_000}, {Name: "interior", Dur: 10_000}, {Name: "halo_wait", Dur: 100_000},
			{Name: "halo_unpack", Dur: 3_000}, {Name: "boundary", Dur: 2_000},
		} {
			sp.Rank, sp.Step, sp.Start = rank, 1, start
			ring = append(ring, sp)
			start += sp.Dur
		}
		rings = append(rings, ring)
	}
	pm := obs.Build(obs.Merge(rings, 0), 0)
	if st := pm.Steps[0]; st.CritWaitNS != 100_000 || st.CriticalNS != 20_000 {
		t.Fatalf("synthetic path: wait %d ns, work %d ns; want 100000 over 20000", st.CritWaitNS, st.CriticalNS)
	}
	work, share, _ := pathTotals(pm)
	if work != 20_000 || share > 1 || share != 100_000.0/120_000.0 {
		t.Fatalf("work %d ns, crit_wait_share %v; want 20000 and 100/120", work, share)
	}
}
