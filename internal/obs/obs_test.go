package obs

import (
	"bytes"
	"testing"

	"gristgo/internal/telemetry"
)

// synthRings builds three single-rank rings (ranks 0..2) over two steps
// with hand-placed timestamps. Rank 1 is the straggler: its interior
// kernel runs 3x the peers', so its peers' halo_wait absorbs the excess
// and the critical path must route through rank 1's compute, exiting
// over a pack->wait edge into whichever rank ends the step.
//
// Per rank and step the ring holds, in end (ring) order:
//
//	halo_pack(5us) interior(C) halo_wait(W) halo_unpack(3us)
//	boundary(10us) dyn_step(container)
//
// with C=30us for ranks 0,2 and 90us for rank 1; W sized so every
// rank's dyn_step wall lands at 120us (lockstep: walls equalize, only
// the compute split localizes the straggler).
func synthRings() [][]telemetry.Event {
	mk := func(rank int32, compute, wait int64) []telemetry.Event {
		var ring []telemetry.Event
		base := int64(1000) // ring epoch offset, normalized away by Merge
		for step := int64(1); step <= 2; step++ {
			t := base + (step-1)*200_000
			at := func(name string, dur int64) {
				ring = append(ring, telemetry.Event{Name: name, Rank: rank, Step: step, Start: t, Dur: dur})
				t += dur
			}
			start := t
			at("halo_pack", 5_000)
			at("interior", compute)
			at("halo_wait", wait)
			at("halo_unpack", 3_000)
			at("boundary", 10_000)
			ring = append(ring, telemetry.Event{Name: "dyn_step", Rank: rank, Step: step, Start: start, Dur: t - start})
		}
		return ring
	}
	return [][]telemetry.Event{
		mk(0, 30_000, 72_000),
		mk(1, 90_000, 12_000),
		mk(2, 30_000, 72_000),
	}
}

func TestMergeShape(t *testing.T) {
	tl := Merge(synthRings(), 0)
	if got, want := len(tl.Steps), 2; got != want {
		t.Fatalf("steps = %d, want %d", got, want)
	}
	if got, want := len(tl.Ranks), 3; got != want {
		t.Fatalf("ranks = %d, want %d", got, want)
	}
	for _, st := range tl.Steps {
		if len(st.Ranks) != 3 {
			t.Fatalf("step %d has %d rank groups, want 3", st.Step, len(st.Ranks))
		}
		for _, rs := range st.Ranks {
			if len(rs.Spans) != 6 {
				t.Fatalf("step %d rank %d has %d spans, want 6", st.Step, rs.Rank, len(rs.Spans))
			}
			// Per-ring normalization: the first retained span starts at 0.
		}
		if st.Ranks[0].Spans[0].Start != (st.Step-1)*200_000 {
			t.Fatalf("step %d not normalized: first span starts at %d", st.Step, st.Ranks[0].Spans[0].Start)
		}
	}
}

func TestCriticalPathRoutesThroughStraggler(t *testing.T) {
	tl := Merge(synthRings(), 0)
	cp, total := CriticalPath(&tl.Steps[0])
	if len(cp) == 0 {
		t.Fatal("empty critical path")
	}
	// Waits are weightless on the path, so the longest work chain is the
	// straggler's: rank 1's pack(5)+interior(90)+unpack(3)+boundary(10)
	// = 108us of work, traversing its (short) wait. The peers' chains
	// carry only 48us of work — their 72us waits are slack, not work.
	if total != 108_000 {
		t.Errorf("critical total = %d, want 108000", total)
	}
	want := []PathSpan{
		{Rank: 1, Name: "halo_pack", Index: 0, DurNS: 5_000},
		{Rank: 1, Name: "interior", Index: 0, DurNS: 90_000},
		{Rank: 1, Name: "halo_wait", Index: 0, DurNS: 12_000},
		{Rank: 1, Name: "halo_unpack", Index: 0, DurNS: 3_000},
		{Rank: 1, Name: "boundary", Index: 0, DurNS: 10_000},
	}
	if len(cp) != len(want) {
		t.Fatalf("path = %+v, want %+v", cp, want)
	}
	for i := range want {
		if cp[i] != want[i] {
			t.Errorf("hop %d = %+v, want %+v", i, cp[i], want[i])
		}
	}
}

// Once a flight ring wraps, rank A's k-th halo_wait can meet rank B's
// k-th halo_pack from a later exchange. Here each rank waits over
// [0, 5] and then packs over [6, 8]: pairing each wait with the peer's
// pack would make a cycle (wait A -> pack B -> wait B -> pack A -> wait
// A). A pack that starts after the wait ended cannot have fed it, so the
// path is one rank's pack alone.
func TestCriticalPathIgnoresPacksAfterTheWait(t *testing.T) {
	rank := func(r int32) RankStep {
		return RankStep{Rank: r, Spans: []Span{
			{Name: "halo_wait", Rank: r, Start: 0, Dur: 5},
			{Name: "halo_pack", Rank: r, Start: 6, Dur: 2},
		}}
	}
	cp, total := CriticalPath(&StepTimeline{Ranks: []RankStep{rank(0), rank(1)}})
	if total != 2 {
		t.Errorf("critical total = %d, want 2", total)
	}
	want := []PathSpan{{Rank: 0, Name: "halo_pack", Index: 0, DurNS: 2}}
	if len(cp) != len(want) || cp[0] != want[0] {
		t.Errorf("path = %+v, want %+v", cp, want)
	}
}

func TestPostmortemAttribution(t *testing.T) {
	tl := Merge(synthRings(), 0)
	pm := Build(tl, 2)
	if pm.Ranks != 3 || len(pm.Steps) != 2 {
		t.Fatalf("pm shape: ranks=%d steps=%d", pm.Ranks, len(pm.Steps))
	}
	rep := pm.Steps[0]
	// Lockstep walls: every rank's dyn_step is 120us, so imbalance is 1.
	for _, a := range rep.Ranks {
		if a.WallNS != 120_000 {
			t.Errorf("rank %d wall = %d, want 120000", a.Rank, a.WallNS)
		}
	}
	if rep.Imbalance != 1.0 {
		t.Errorf("imbalance = %v, want 1.0 (walls equalize under lockstep)", rep.Imbalance)
	}
	// ...but compute attribution localizes the straggler.
	if rep.Ranks[1].ComputeNS != 100_000 { // 90us interior + 10us boundary
		t.Errorf("straggler compute = %d, want 100000", rep.Ranks[1].ComputeNS)
	}
	if rep.Ranks[0].ComputeNS != 40_000 || rep.Ranks[2].ComputeNS != 40_000 {
		t.Errorf("peer compute = %d/%d, want 40000", rep.Ranks[0].ComputeNS, rep.Ranks[2].ComputeNS)
	}
	if rep.Ranks[0].WaitNS != 72_000 || rep.Ranks[1].WaitNS != 12_000 {
		t.Errorf("wait split = %d/%d, want 72000/12000", rep.Ranks[0].WaitNS, rep.Ranks[1].WaitNS)
	}
	// Weights: compute shares normalized to mean 1 -> straggler > peers.
	ws := pm.ComputeWeights(tl)
	if len(ws) != 3 {
		t.Fatalf("weights = %v", ws)
	}
	if !(ws[1] > ws[0] && ws[1] > ws[2]) {
		t.Errorf("straggler weight not dominant: %v", ws)
	}
}

func TestPostmortemDeterministic(t *testing.T) {
	rings := synthRings()
	var a, b bytes.Buffer
	if err := Build(Merge(rings, 0), 3).EncodeJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := Build(Merge(rings, 0), 3).EncodeJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("postmortem replay not byte-identical:\n--- a ---\n%s\n--- b ---\n%s", a.String(), b.String())
	}
	if a.Len() == 0 {
		t.Error("empty postmortem")
	}
}

func TestDroppedSpansFlagged(t *testing.T) {
	tl := Merge(synthRings(), 7)
	pm := Build(tl, 3)
	if pm.Dropped != 7 {
		t.Errorf("dropped = %d, want 7", pm.Dropped)
	}
	if len(pm.Warnings) == 0 {
		t.Error("no warning for dropped spans")
	}
	if !pm.Steps[0].Incomplete {
		t.Error("first retained step not flagged incomplete under drops")
	}
	if pm.Steps[1].Incomplete {
		t.Error("later step wrongly flagged incomplete")
	}
}

// goldenMergedTrace pins the merged multi-rank Chrome trace for the
// synthetic two-step fixture, first step only (keeps the golden
// readable). pid = ring, tid = rank, crit marks the critical path.
const goldenMergedTrace = `{"displayTimeUnit":"ms","traceEvents":[
{"name":"dyn_step","ph":"X","pid":0,"tid":0,"ts":0.000,"dur":120.000,"args":{"step":1}},
{"name":"halo_pack","ph":"X","pid":0,"tid":0,"ts":0.000,"dur":5.000,"args":{"step":1}},
{"name":"interior","ph":"X","pid":0,"tid":0,"ts":5.000,"dur":30.000,"args":{"step":1}},
{"name":"halo_wait","ph":"X","pid":0,"tid":0,"ts":35.000,"dur":72.000,"args":{"step":1}},
{"name":"halo_unpack","ph":"X","pid":0,"tid":0,"ts":107.000,"dur":3.000,"args":{"step":1}},
{"name":"boundary","ph":"X","pid":0,"tid":0,"ts":110.000,"dur":10.000,"args":{"step":1}},
{"name":"dyn_step","ph":"X","pid":1,"tid":1,"ts":0.000,"dur":120.000,"args":{"step":1}},
{"name":"halo_pack","ph":"X","pid":1,"tid":1,"ts":0.000,"dur":5.000,"args":{"step":1,"crit":1}},
{"name":"interior","ph":"X","pid":1,"tid":1,"ts":5.000,"dur":90.000,"args":{"step":1,"crit":1}},
{"name":"halo_wait","ph":"X","pid":1,"tid":1,"ts":95.000,"dur":12.000,"args":{"step":1,"crit":1}},
{"name":"halo_unpack","ph":"X","pid":1,"tid":1,"ts":107.000,"dur":3.000,"args":{"step":1,"crit":1}},
{"name":"boundary","ph":"X","pid":1,"tid":1,"ts":110.000,"dur":10.000,"args":{"step":1,"crit":1}},
{"name":"dyn_step","ph":"X","pid":2,"tid":2,"ts":0.000,"dur":120.000,"args":{"step":1}},
{"name":"halo_pack","ph":"X","pid":2,"tid":2,"ts":0.000,"dur":5.000,"args":{"step":1}},
{"name":"interior","ph":"X","pid":2,"tid":2,"ts":5.000,"dur":30.000,"args":{"step":1}},
{"name":"halo_wait","ph":"X","pid":2,"tid":2,"ts":35.000,"dur":72.000,"args":{"step":1}},
{"name":"halo_unpack","ph":"X","pid":2,"tid":2,"ts":107.000,"dur":3.000,"args":{"step":1}},
{"name":"boundary","ph":"X","pid":2,"tid":2,"ts":110.000,"dur":10.000,"args":{"step":1}}
]}
`

func TestMergedChromeTraceGolden(t *testing.T) {
	rings := synthRings()
	// Keep step 1 only so the golden stays reviewable.
	for i := range rings {
		var kept []telemetry.Event
		for _, ev := range rings[i] {
			if ev.Step == 1 {
				kept = append(kept, ev)
			}
		}
		rings[i] = kept
	}
	tl := Merge(rings, 0)
	pm := Build(tl, 3)
	var b bytes.Buffer
	if err := tl.WriteChromeTrace(&b, pm); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != goldenMergedTrace {
		t.Errorf("merged trace drifted.\n--- got ---\n%s--- want ---\n%s", got, goldenMergedTrace)
	}
	// And the trace itself is replay-stable.
	var b2 bytes.Buffer
	if err := Merge(rings, 0).WriteChromeTrace(&b2, Build(Merge(rings, 0), 3)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), b2.Bytes()) {
		t.Error("merged trace replay not byte-identical")
	}
}

func TestRingsHelper(t *testing.T) {
	r0 := telemetry.NewRecorder(16)
	r1 := telemetry.NewRecorder(16)
	r0.BeginAt("interior", 0, 1).End()
	r1.BeginAt("interior", 1, 1).End()
	rings, dropped := Rings(r0, r1)
	if len(rings) != 2 || dropped != 0 {
		t.Fatalf("rings=%d dropped=%d", len(rings), dropped)
	}
	if len(rings[0]) != 1 || rings[0][0].Name != "interior" {
		t.Fatalf("ring 0 = %+v", rings[0])
	}
	// Overflow a 16-slot ring to surface drops.
	for i := 0; i < 40; i++ {
		r0.BeginAt("interior", 0, int64(i+1)).End()
	}
	_, dropped = Rings(r0, r1)
	if dropped == 0 {
		t.Error("expected drops after ring wrap")
	}
}
