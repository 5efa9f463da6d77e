package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"gristgo/internal/dycore"
	"gristgo/internal/fault"
	"gristgo/internal/partition"
	"gristgo/internal/precision"
	"gristgo/internal/telemetry"
)

// assertNoLeakedGoroutines waits for the goroutine count to settle back
// to the pre-run level (plus test-harness slack); elastic worlds that
// leak ranks across reshapes fail here under -race.
func assertNoLeakedGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across elastic reshapes: %d before, %d after settle", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Without kills or grows a shrink-on-death run never leaves its first
// leg, so it must match the plain run bitwise.
func TestElasticCleanMatchesPlainBitwise(t *testing.T) {
	m := sharedMesh3
	nlev, nparts, steps, dt := 4, 4, 6, 90.0
	plain := RunDistributedDynamics(m, nlev, nparts, precision.DP, resilientInit, steps, dt)

	halo, sync := testTimeouts()
	got, rep, err := Run(RunSpec{
		Mesh: m, NLev: nlev, NParts: nparts, Mode: precision.DP, Init: resilientInit, Steps: steps, Dt: dt,
		OnDeath: Shrink, CheckpointEvery: 2, Dir: t.TempDir(),
		HaloTimeout: halo, SyncTimeout: sync,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Legs != 1 || len(rep.Events) != 0 || rep.FinalEpoch != 0 {
		t.Fatalf("clean elastic report: %+v", rep)
	}
	assertBitwise(t, got, plain, "clean elastic run")
}

// The tentpole acceptance scenario ("shrinkgrow"): node 1 is killed at
// step 4, the run repartitions over the three survivors and continues
// from the redistributed epoch-4 shards; at step 8 a scheduled grow
// re-absorbs a fourth node (node 1's id is reused) and the run
// finishes on the full world. The world is never restarted from step 0.
// In DP the final state is bitwise identical to an uninjected plain
// run — strictly stronger than the 5% ps/vor gate, which is asserted
// explicitly as well. The goroutine count must settle afterwards.
func TestElasticShrinkGrowBitwiseDP(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := telemetry.NewRegistry()
	spec := shrinkGrowSpec(t, precision.DP)
	spec.Reg = reg
	plain := plainRun(spec)
	got, rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Legs != 3 || len(rep.Events) != 2 {
		t.Fatalf("legs %d, reshapes %d, want 3 and 2: %+v", rep.Legs, len(rep.Events), rep)
	}
	shrink, grow := rep.Events[0], rep.Events[1]
	if shrink.Kind != "shrink" || fmt.Sprint(shrink.Members) != "[0 2 3]" || shrink.Epoch != 1 {
		t.Fatalf("shrink event: %+v", shrink)
	}
	killed := false
	for _, f := range shrink.Failures {
		if f.Rank == 1 && f.Kind == "killed" {
			killed = true
		}
	}
	if !killed {
		t.Fatalf("shrink does not record node 1 as killed: %+v", shrink.Failures)
	}
	if shrink.ResumeStep != 4 {
		t.Fatalf("shrink resumed at step %d, want 4 (kill at step 4, epochs every 2)", shrink.ResumeStep)
	}
	if grow.Kind != "grow" || fmt.Sprint(grow.Members) != "[0 1 2 3]" || grow.Epoch != 2 || grow.ResumeStep != 8 {
		t.Fatalf("grow event: %+v", grow)
	}
	if fmt.Sprint(rep.WorldSizes) != "[4 3 4]" {
		t.Fatalf("world sizes %v, want [4 3 4]", rep.WorldSizes)
	}
	if fmt.Sprint(rep.FinalMembers) != "[0 1 2 3]" || rep.FinalEpoch != 2 {
		t.Fatalf("final membership %v epoch %d", rep.FinalMembers, rep.FinalEpoch)
	}

	// The grow must measurably reduce the capacity-relative load
	// imbalance: the shrunk leg idles one node slot (~4/3), the grown
	// leg uses all four (~1).
	if rep.LegImbalance[1] < rep.LegImbalance[2]+0.2 {
		t.Fatalf("grow did not reduce imbalance: shrunk %.3f, grown %.3f",
			rep.LegImbalance[1], rep.LegImbalance[2])
	}
	if g := reg.Gauge("grist_load_imbalance").Value(); g != rep.LegImbalance[2] {
		t.Fatalf("grist_load_imbalance = %v, want %v (last leg)", g, rep.LegImbalance[2])
	}
	if n := reg.Counter("grist_repartition_total").Value(); n != 2 {
		t.Fatalf("grist_repartition_total = %d, want 2", n)
	}
	if n := reg.Counter("grist_rank_failures_total").Value(); n == 0 {
		t.Fatal("grist_rank_failures_total = 0")
	}

	assertBitwise(t, got, plain, "shrink/grow run")
	psGot, psWant := got.SurfacePressure(), plain.SurfacePressure()
	if e := relL2(psGot, psWant); e > 0.05 {
		t.Fatalf("ps relative error %.2e exceeds the 5%% gate", e)
	}
	vorGot := dycore.NewFromState(got, precision.DP).VorticityAtLevel(2)
	vorWant := dycore.NewFromState(plain, precision.DP).VorticityAtLevel(2)
	if e := relL2(vorGot, vorWant); e > 0.05 {
		t.Fatalf("vor relative error %.2e exceeds the 5%% gate", e)
	}

	blocking := runBlockingShrinkGrow(t, precision.DP)
	assertBitwise(t, blocking, got, "blocking vs overlapped shrink/grow run")
	assertBitwise(t, blocking, plain, "blocking shrink/grow run")

	assertNoLeakedGoroutines(t, before)
}

// shrinkGrowSpec is the shrinkgrow scenario in mode: node 1 killed at
// step 4 under shrink-on-death, a grow of one node at step 8, epochs
// every 2 steps into a fresh directory. Each call carries a fresh fault
// plan, because a plan's kill is spent once it fires.
func shrinkGrowSpec(t *testing.T, mode precision.Mode) RunSpec {
	halo, sync := testTimeouts()
	return RunSpec{
		Mesh: sharedMesh3, NLev: 4, NParts: 4, Mode: mode, Init: resilientInit, Steps: 12, Dt: 90.0,
		OnDeath:         Shrink,
		Injector:        fault.NewPlan(7, fault.Profile{Name: "shrinkgrow", KillRank: 1, KillStep: 4}),
		CheckpointEvery: 2, Dir: t.TempDir(),
		Grow:        []GrowEvent{{Step: 8, Add: 1}},
		HaloTimeout: halo, SyncTimeout: sync,
	}
}

// plainRun is spec's uninjected reference: the same model, no faults,
// no reshapes.
func plainRun(spec RunSpec) *dycore.State {
	return RunDistributedDynamics(spec.Mesh, spec.NLev, spec.NParts, spec.Mode, spec.Init, spec.Steps, spec.Dt)
}

// runBlockingShrinkGrow reruns the shrinkgrow scenario with blocking
// halo rounds: the overlap == blocking parity must hold across a
// decomposition that changes mid-run, not only on a fixed one.
func runBlockingShrinkGrow(t *testing.T, mode precision.Mode) *dycore.State {
	t.Helper()
	spec := shrinkGrowSpec(t, mode)
	spec.Blocking = true
	got, rep, err := Run(spec)
	if err != nil {
		t.Fatalf("blocking leg: %v", err)
	}
	if fmt.Sprint(rep.WorldSizes) != "[4 3 4]" {
		t.Fatalf("blocking leg world sizes %v, want [4 3 4]", rep.WorldSizes)
	}
	return got
}

// The same scenario in mixed precision: FP32 wire rounding makes the
// mirror sets decomposition-dependent, so bitwise identity is not
// expected — but the §3.4 5% ps/vor gate must hold against an
// uninjected mixed-precision run.
func TestElasticShrinkGrowMixedWithinGate(t *testing.T) {
	spec := shrinkGrowSpec(t, precision.Mixed)
	plain := plainRun(spec)
	got, rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rep.WorldSizes) != "[4 3 4]" {
		t.Fatalf("world sizes %v, want [4 3 4]", rep.WorldSizes)
	}
	if e := relL2(got.SurfacePressure(), plain.SurfacePressure()); e > 0.05 {
		t.Fatalf("mixed ps relative error %.2e exceeds the 5%% gate", e)
	}
	vorGot := dycore.NewFromState(got, precision.DP).VorticityAtLevel(2)
	vorWant := dycore.NewFromState(plain, precision.DP).VorticityAtLevel(2)
	if e := relL2(vorGot, vorWant); e > 0.05 {
		t.Fatalf("mixed vor relative error %.2e exceeds the 5%% gate", e)
	}
	assertBitwise(t, runBlockingShrinkGrow(t, precision.Mixed), got, "mixed blocking vs overlapped shrink/grow run")
}

// haloStallInjector delays exactly one positive-tag halo message far
// past the receiver's deadline: a transient stall with no dead node,
// which the elastic runner must classify as "timeout" (rollback), never
// "killed" (shrink). One-shot, so the replay leg does not re-suffer it.
type haloStallInjector struct {
	mu    sync.Mutex
	after int // let this many messages through first
	n     int
	done  bool
}

func (h *haloStallInjector) OnSend(from, to, tag, attempt int, data []byte) (bool, time.Duration) {
	if tag < 0 {
		return false, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.n++
	if !h.done && h.n > h.after {
		h.done = true
		return false, 600 * time.Millisecond
	}
	return false, 0
}

// A timeout with no classified death must roll back on the SAME
// membership, not shrink: dropping a live node on a transient would
// shed capacity permanently.
func TestElasticTimeoutRollsBackWithoutShrinking(t *testing.T) {
	m := sharedMesh3
	nlev, nparts, steps, dt := 2, 3, 4, 60.0
	plain := RunDistributedDynamics(m, nlev, nparts, precision.DP, resilientInit, steps, dt)

	inj := &haloStallInjector{after: 20} // stalls one message long past the deadline, once
	halo := 150 * time.Millisecond
	got, rep, err := Run(RunSpec{
		Mesh: m, NLev: nlev, NParts: nparts, Mode: precision.DP, Init: resilientInit, Steps: steps, Dt: dt,
		OnDeath: Shrink, Injector: inj,
		CheckpointEvery: 2, Dir: t.TempDir(),
		HaloTimeout: halo, SyncTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) == 0 {
		t.Fatal("the stalled leg left no trace in the report")
	}
	for _, ev := range rep.Events {
		if ev.Kind != "rollback" {
			t.Fatalf("membership changed on an unclassified timeout: %+v", ev)
		}
	}
	if rep.WorldSizes[len(rep.WorldSizes)-1] != nparts {
		t.Fatalf("world shrank to %d on a timeout", rep.WorldSizes[len(rep.WorldSizes)-1])
	}
	assertBitwise(t, got, plain, "rollback run")
}

// Live rebalancing inside one world: SwapLayout + SetOwned between
// steps, weighted repartition from agreed wall times. DP result must be
// bitwise identical to the never-rebalanced run.
func TestRebalancedMatchesPlainBitwiseDP(t *testing.T) {
	m := sharedMesh3
	nlev, nparts, steps, dt := 4, 4, 9, 90.0
	plain := RunDistributedDynamics(m, nlev, nparts, precision.DP, resilientInit, steps, dt)

	reg := telemetry.NewRegistry()
	got, rep, err := Run(RunSpec{
		Mesh: m, NLev: nlev, NParts: nparts, Mode: precision.DP, Init: resilientInit, Steps: steps, Dt: dt,
		RebalanceAt: []int{3, 6}, Reg: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied := rep.Rebalances; applied != 2 {
		t.Fatalf("applied %d repartitions, want 2", applied)
	}
	if n := reg.Counter("grist_repartition_total").Value(); n != 2 {
		t.Fatalf("grist_repartition_total = %d, want 2", n)
	}
	assertBitwise(t, got, plain, "rebalanced run")
}

// Redistribute must assemble owner-truth: every entity of the reshared
// epoch comes from the rank that owned it under the old plan, the
// retired rank's shard file is pruned, and the epoch re-verifies (and
// resumes) under the new plan and generation.
func TestRedistributePreservesOwnerTruth(t *testing.T) {
	m := sharedMesh3
	nlev := 4
	s := RunDistributedDynamics(m, nlev, 4, precision.DP, resilientInit, 3, 90.0)

	dir := t.TempDir()
	plA := NewDistPlan(m, nlev, 4, 12345)
	store, err := NewShardStore(dir, plA)
	if err != nil {
		t.Fatal(err)
	}
	const epoch, step = 5, 3
	for p := 0; p < 4; p++ {
		if err := store.WriteShard(epoch, p, step, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Commit(epoch, step); err != nil {
		t.Fatal(err)
	}

	d, err := partition.DecomposeWeighted(m, 3, partition.EpochSeed(12345, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Epoch = 1
	plB := NewDistPlanFromDecomp(m, nlev, d)
	if err := store.Redistribute(epoch, step, plB); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-e%06d-r%04d.grist", epoch, 3))); !os.IsNotExist(err) {
		t.Fatalf("retired rank 3's shard was not pruned: %v", err)
	}
	if e, st0, ok := store.LatestCommitted(); !ok || e != epoch || st0 != step {
		t.Fatalf("LatestCommitted after redistribution = (%d, %d, %v), want (%d, %d, true)", e, st0, ok, epoch, step)
	}

	got := dycore.NewState(m, nlev)
	for p := 0; p < plB.NParts; p++ {
		if _, err := store.ReadShard(epoch, p, got); err != nil {
			t.Fatal(err)
		}
	}
	assertBitwise(t, got, s, "redistributed epoch")
}

// Satellite regression: LatestCommitted must notice a shard file
// disappearing from disk after it has offered the epoch once. Delete one
// of the epoch's shards and it must fall back to the older epoch.
func TestLatestCommittedFallsBackOnMissingShard(t *testing.T) {
	m := sharedMesh3
	nlev := 2
	dir := t.TempDir()
	pl := NewDistPlan(m, nlev, 2, 1)
	store, err := NewShardStore(dir, pl)
	if err != nil {
		t.Fatal(err)
	}
	s := dycore.NewState(m, nlev)
	resilientInit(s)
	for _, epoch := range []int{2, 4} {
		for p := 0; p < 2; p++ {
			if err := store.WriteShard(epoch, p, epoch, s); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Commit(epoch, epoch); err != nil {
			t.Fatal(err)
		}
	}
	if e, _, ok := store.LatestCommitted(); !ok || e != 4 {
		t.Fatalf("LatestCommitted = (%d, %v), want epoch 4", e, ok)
	}
	// Remove one epoch-4 shard behind the store's back — the next call
	// must NOT offer epoch 4 again.
	if err := os.Remove(filepath.Join(dir, fmt.Sprintf("shard-e%06d-r%04d.grist", 4, 1))); err != nil {
		t.Fatal(err)
	}
	if e, _, ok := store.LatestCommitted(); !ok || e != 4 {
		if !ok || e != 2 {
			t.Fatalf("after shard removal LatestCommitted = (%d, %v), want epoch 2", e, ok)
		}
	} else {
		t.Fatal("LatestCommitted offered epoch 4 after its shard disappeared")
	}
	// And it stays retired on subsequent polls.
	if e, _, ok := store.LatestCommitted(); !ok || e != 2 {
		t.Fatalf("second poll after shard removal = (%d, %v), want epoch 2", e, ok)
	}
}
