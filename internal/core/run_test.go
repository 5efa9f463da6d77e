package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"gristgo/internal/dycore"
	"gristgo/internal/fault"
	"gristgo/internal/obs"
	"gristgo/internal/precision"
	"gristgo/internal/telemetry"
	"gristgo/internal/tracer"
)

// newRings returns one flight recorder per rank.
func newRings(n int) []*telemetry.Recorder {
	recs := make([]*telemetry.Recorder, n)
	for p := range recs {
		recs[p] = telemetry.NewRecorder(1 << 14)
	}
	return recs
}

// assertEveryStepTraced merges the rings and requires steps 1..steps,
// each exactly once, with no ring-wrap drops.
func assertEveryStepTraced(t *testing.T, recs []*telemetry.Recorder, steps int) {
	t.Helper()
	tl := obs.Merge(obs.Rings(recs...))
	if tl.Dropped != 0 {
		t.Fatalf("rings dropped %d spans", tl.Dropped)
	}
	if len(tl.Steps) != steps {
		t.Fatalf("merged timeline has %d steps, want %d", len(tl.Steps), steps)
	}
	for i, st := range tl.Steps {
		if st.Step != int64(i+1) {
			t.Fatalf("merged step %d is numbered %d", i, st.Step)
		}
	}
}

// The first combination the one loop makes expressible: an elastic
// shrink+grow run with the health sentinels and per-rank tracing on. The
// sentinels must stay silent on a healthy run (across the reshapes the
// mass baseline is kept, not re-observed), the DP result stays bitwise
// equal to the plain run, and the per-node rings merge into a complete
// step timeline even though node 1 sat out the shrunk leg.
func TestElasticShrinkGrowWithSentinelsAndTracing(t *testing.T) {
	m := sharedMesh3
	nlev, nparts, steps, dt := 4, 4, 12, 90.0
	plain := RunDistributedDynamics(m, nlev, nparts, precision.DP, resilientInit, steps, dt)

	halo, sync := testTimeouts()
	reg := telemetry.NewRegistry()
	mon := newTestMonitor(reg)
	recs := newRings(nparts)
	got, rep, err := Run(RunSpec{
		Mesh: m, NLev: nlev, NParts: nparts, Mode: precision.DP, Init: resilientInit, Steps: steps, Dt: dt,
		OnDeath:         Shrink,
		Injector:        fault.NewPlan(7, fault.Profile{Name: "shrinkgrow", KillRank: 1, KillStep: 4}),
		CheckpointEvery: 2, Dir: t.TempDir(),
		Grow:        []GrowEvent{{Step: 8, Add: 1}},
		HaloTimeout: halo, SyncTimeout: sync,
		Monitor: mon, Recs: recs, Reg: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rep.WorldSizes) != "[4 3 4]" {
		t.Fatalf("world sizes %v, want [4 3 4]", rep.WorldSizes)
	}
	if n := mon.TotalTrips(); n != 0 {
		t.Fatalf("%d sentinel trips on a healthy run: %+v", n, mon.Trips())
	}
	assertBitwise(t, got, plain, "sentinel-checked, traced shrink/grow run")
	assertEveryStepTraced(t, recs, steps)
}

// The same spec under a one-shot wire corruption instead of a kill: the
// sentinel — which only the rollback-only driver used to run — trips
// within one step of the flip, the leg rolls back, and the replay, the
// scheduled grow included, finishes bitwise equal to the same spec run
// without the injector.
func TestElasticBitFlipTripsSentinelAndRollsBack(t *testing.T) {
	m := sharedMesh3
	halo, sync := testTimeouts()
	spec := RunSpec{
		Mesh: m, NLev: 4, NParts: 4, Mode: precision.Mixed, Init: resilientInit, Steps: 12, Dt: 90.0,
		OnDeath:         Shrink,
		CheckpointEvery: 2,
		Grow:            []GrowEvent{{Step: 8, Add: 1}},
		HaloTimeout:     halo, SyncTimeout: sync,
	}
	spec.Dir = t.TempDir()
	clean, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	plan := fault.NewPlan(17, fault.Profile{Name: "bitflip", FlipProb: 1, MaxFlips: 1})
	mon := newTestMonitor(telemetry.NewRegistry())
	recs := newRings(spec.NParts)
	spec.Dir, spec.Injector, spec.Monitor, spec.Recs = t.TempDir(), plan, mon, recs
	got, rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Flips() != 1 {
		t.Fatalf("plan fired %d flips, want exactly 1", plan.Flips())
	}
	trips := mon.Trips()
	if len(trips) == 0 || trips[0].Step != 1 {
		t.Fatalf("sentinel trips %+v, want the first at step 1 (within one step of the flip)", trips)
	}
	if rep.Recoveries != 1 || rep.Events[0].Kind != "rollback" || rep.Events[0].Failures[0].Kind != "sentinel" {
		t.Fatalf("want one sentinel rollback first: %+v", rep.Events)
	}
	if fmt.Sprint(rep.WorldSizes) != "[4 4 5]" {
		t.Fatalf("world sizes %v, want [4 4 5] (failed leg, replay to the grow, grown leg)", rep.WorldSizes)
	}
	assertBitwise(t, got, clean, "post-rollback elastic replay")
	assertEveryStepTraced(t, recs, spec.Steps)
}

// The second combination: a rebalanced run that checkpoints. Epochs
// after the first repartition are committed under its generation, a rank
// death after it rolls back to one of them on the rebalanced plan, and
// the DP result stays bitwise equal to the plain run.
func TestRebalancedCheckpointsResumeAfterRankDeath(t *testing.T) {
	m := sharedMesh3
	nlev, nparts, steps, dt := 4, 4, 9, 90.0
	plain := RunDistributedDynamics(m, nlev, nparts, precision.DP, resilientInit, steps, dt)

	dir := t.TempDir()
	halo, sync := testTimeouts()
	got, rep, err := Run(RunSpec{
		Mesh: m, NLev: nlev, NParts: nparts, Mode: precision.DP, Init: resilientInit, Steps: steps, Dt: dt,
		RebalanceAt:     []int{3, 6},
		Injector:        fault.NewPlan(11, fault.Profile{Name: "rankdeath", KillRank: 2, KillStep: 5}),
		CheckpointEvery: 2, Dir: dir,
		HaloTimeout: halo, SyncTimeout: sync,
	})
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, ev := range rep.Events {
		kinds = append(kinds, fmt.Sprintf("%s@%d", ev.Kind, ev.Epoch))
	}
	if fmt.Sprint(kinds) != "[rebalance@1 rollback@1 rebalance@2]" {
		t.Fatalf("events (kind@decomposition epoch) %v, want [rebalance@1 rollback@1 rebalance@2]", kinds)
	}
	if rb := rep.Events[1]; rb.ResumeEpoch != 4 || rb.ResumeStep != 4 {
		t.Fatalf("rolled back to epoch %d step %d, want 4/4 (kill at step 5, epochs every 2)", rb.ResumeEpoch, rb.ResumeStep)
	}
	// Epoch 4 was written between the two repartitions; epoch 8 after both.
	for epoch, wantGen := range map[int]int{4: 1, 8: 2} {
		raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("epoch-%06d.json", epoch)))
		if err != nil {
			t.Fatal(err)
		}
		var man epochManifest
		if err := json.Unmarshal(raw, &man); err != nil {
			t.Fatal(err)
		}
		if man.Gen != wantGen {
			t.Fatalf("epoch %d committed under generation %d, want %d", epoch, man.Gen, wantGen)
		}
	}
	assertBitwise(t, got, plain, "rebalanced, checkpointed, recovered run")
}

// A repartition the partitioner cannot carry out must leave a trace: the
// ranks keep their plan, rank 0 warns with the step and the error, and
// the report lists the boundary as a skipped rebalance.
func TestRebalancedSkipIsLoggedAndReported(t *testing.T) {
	var logged bytes.Buffer
	old := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
	defer slog.SetDefault(old)

	m := sharedMesh3
	pl := NewDistPlan(m, 2, 4, defaultSeed)
	d := &run{RunSpec: RunSpec{Mesh: m, NLev: 2}, rep: &RunReport{Legs: 1}, pl: pl, members: []int{0, 1, 2, 3}}
	// One cell outweighs the rest of the mesh: no 4-way split of the
	// weight leaves every part a cell.
	w := make([]int32, m.NCells)
	for c := range w {
		w[c] = 1
	}
	w[0] = 1 << 20
	for p := 0; p < 4; p++ {
		if next, err := d.replan(RunEvent{Kind: "rebalance", Step: 3}, pl, w, p == 0); next != nil || err == nil {
			t.Fatalf("rank %d got plan %v, error %v from a repartition that cannot succeed", p, next, err)
		}
	}
	if len(d.rep.Events) != 1 {
		t.Fatalf("%d events, want one (rank 0 records for the world): %+v", len(d.rep.Events), d.rep.Events)
	}
	ev := d.rep.Events[0]
	if ev.Kind != "rebalance" || ev.Step != 3 || ev.Epoch != 0 || !strings.Contains(ev.Skipped, "empty") {
		t.Fatalf("skip event %+v", ev)
	}
	if d.rep.Rebalances != 0 {
		t.Fatal("a skipped repartition was counted as applied")
	}
	if out := logged.String(); !strings.Contains(out, "level=WARN") || !strings.Contains(out, "step=3") || !strings.Contains(out, "empty") {
		t.Fatalf("skip was not logged at WARN with step and error: %q", out)
	}
}

// An inconsistent spec is an error that names the field, never a panic
// and never a silently ignored setting.
func TestRunSpecValidationOfResilientElasticRebalancedFields(t *testing.T) {
	base := RunSpec{Mesh: sharedMesh3, NLev: 2, NParts: 3, Mode: precision.DP, Init: resilientInit, Steps: 4, Dt: 60}
	dir := t.TempDir()
	tracers := tracer.NewField(sharedMesh3, 2, make([]float64, sharedMesh3.NCells*2))
	for _, tc := range []struct {
		field string
		mut   func(*RunSpec)
	}{
		{"Mesh", func(s *RunSpec) { s.Mesh = nil }},
		{"Init", func(s *RunSpec) { s.Init = nil }},
		{"NParts", func(s *RunSpec) { s.NParts = 0 }},
		{"NParts", func(s *RunSpec) { s.NParts = sharedMesh3.NCells + 1 }},
		{"InitialWeights", func(s *RunSpec) { s.InitialWeights = []int32{1, 2, 3} }},
		{"Recs", func(s *RunSpec) { s.Recs = newRings(2) }},
		{"Dir", func(s *RunSpec) { s.CheckpointEvery = 2 }},
		{"Dir", func(s *RunSpec) { s.Dir = dir }},
		{"Grow", func(s *RunSpec) { s.Grow = []GrowEvent{{Step: 2, Add: 1}} }},
		{"Grow", func(s *RunSpec) { s.CheckpointEvery, s.Dir, s.Grow = 2, dir, []GrowEvent{{Step: 4, Add: 1}} }},
		{"Grow", func(s *RunSpec) { s.CheckpointEvery, s.Dir, s.Grow = 2, dir, []GrowEvent{{Step: 2, Add: 0}} }},
		{"OnDeath", func(s *RunSpec) { s.OnDeath = Shrink }},
		{"RebalanceAt", func(s *RunSpec) { s.RebalanceAt = []int{0} }},
		{"RebalanceAt", func(s *RunSpec) { s.RebalanceAt = []int{2, 4} }},
		{"Tracers", func(s *RunSpec) { s.TracerEvery = 2 }},
		{"Tracers", func(s *RunSpec) { s.Tracers = tracers }},
		{"Tracers", func(s *RunSpec) { s.Tracers, s.TracerEvery = tracer.NewField(sharedMesh3, 3, nil), 2 }},
		{"TracerEvery", func(s *RunSpec) { s.Tracers, s.TracerEvery = tracers, 3 }},
		{"Tracers", func(s *RunSpec) { s.Tracers, s.TracerEvery, s.CheckpointEvery, s.Dir = tracers, 2, 2, dir }},
		{"Tracers", func(s *RunSpec) {
			s.Tracers, s.TracerEvery, s.CheckpointEvery, s.Dir, s.OnDeath = tracers, 2, 2, dir, Shrink
		}},
		{"Tracers", func(s *RunSpec) {
			s.Tracers, s.TracerEvery, s.CheckpointEvery, s.Dir, s.Grow = tracers, 2, 2, dir, []GrowEvent{{Step: 2, Add: 1}}
		}},
		{"Tracers", func(s *RunSpec) { s.Tracers, s.TracerEvery, s.RebalanceAt = tracers, 2, []int{2} }},
	} {
		spec := base
		tc.mut(&spec)
		st, rep, err := Run(spec)
		if err == nil || st != nil || rep != nil {
			t.Errorf("%s: invalid spec ran (err %v)", tc.field, err)
			continue
		}
		if !strings.Contains(err.Error(), "RunSpec."+tc.field) {
			t.Errorf("%s: error does not name the field: %v", tc.field, err)
		}
	}
	if _, _, err := Run(base); err != nil {
		t.Fatalf("the base spec is valid: %v", err)
	}
}

// A plain spec stays a plain run, not a resilient one: zero steps return
// Init's state without a single halo round.
func TestPlainSpecIsNotResilientZeroSteps(t *testing.T) {
	m := sharedMesh3
	want := dycore.NewState(m, 3)
	resilientInit(want)
	got, rep, err := Run(RunSpec{Mesh: m, NLev: 3, NParts: 4, Mode: precision.DP, Init: resilientInit, Dt: 60})
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, got, want, "zero-step run")
	if rep.Exchange.Rounds != 0 || rep.Legs != 1 || len(rep.Events) != 0 {
		t.Fatalf("zero-step report: %+v", rep)
	}
}

// ... and a rank panic is not swallowed into a recovery attempt: it
// takes the process down with the original value. The panicking run
// lives in a child process (a rank goroutine's panic cannot be caught
// from the test's goroutine).
func TestPlainSpecIsNotResilientPanicPropagates(t *testing.T) {
	const env = "GRIST_PLAIN_PANIC_CHILD"
	if os.Getenv(env) == "1" {
		var calls atomic.Int32
		Run(RunSpec{Mesh: sharedMesh3, NLev: 2, NParts: 3, Mode: precision.DP, Steps: 2, Dt: 60,
			Init: func(s *dycore.State) {
				if calls.Add(1) == 1 {
					panic("init exploded on one rank")
				}
				resilientInit(s)
			}})
		os.Exit(0) // not reached: the rank's panic kills the process
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestPlainSpecIsNotResilientPanicPropagates$")
	cmd.Env = append(os.Environ(), env+"=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child exited cleanly: the rank panic was swallowed\n%s", out)
	}
	if !strings.Contains(string(out), "panic: init exploded on one rank") {
		t.Fatalf("child died without the original panic value:\n%s", out)
	}
}
