package core

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gristgo/internal/diag"
	"gristgo/internal/dycore"
	"gristgo/internal/fault"
	"gristgo/internal/precision"
	"gristgo/internal/telemetry"
)

// newTestMonitor builds a health monitor with default tolerances whose
// trips are only counted.
func newTestMonitor(reg *telemetry.Registry) *diag.HealthMonitor {
	return diag.NewHealthMonitor(reg, nil)
}

// resilientInit is the shared initial condition of the recovery tests:
// a thermal bubble in a solid-body flow, structured enough that any
// replay divergence shows up in every field.
func resilientInit(s *dycore.State) {
	s.IsothermalRest(295)
	s.AddThermalBubble(0.4, 1.2, 0.25, 4)
	s.AddSolidBodyWind(18)
}

// testTimeouts returns deadlines generous against race-mode slowdowns
// but short enough that the failing legs stay cheap.
func testTimeouts() (halo, sync time.Duration) { return time.Second, time.Second }

// assertBitwise compares two states field by field, exactly.
func assertBitwise(t *testing.T, got, want *dycore.State, label string) {
	t.Helper()
	cmp := func(name string, a, b []float64) {
		if len(a) != len(b) {
			t.Fatalf("%s: %s length %d vs %d", label, name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v (not bitwise identical)", label, name, i, a[i], b[i])
			}
		}
	}
	cmp("DryMass", got.DryMass, want.DryMass)
	cmp("ThetaM", got.ThetaM, want.ThetaM)
	cmp("U", got.U, want.U)
	cmp("W", got.W, want.W)
	cmp("Phi", got.Phi, want.Phi)
}

// Without faults, the resilient runner (deadlines, health checks,
// checkpoint epochs and all) must reproduce RunDistributedDynamics
// bitwise — resilience must be free on the failure-free path.
func TestResilientMatchesPlainWithoutFaults(t *testing.T) {
	m := sharedMesh3
	nlev, nparts, steps, dt := 4, 4, 6, 90.0
	plain := RunDistributedDynamics(m, nlev, nparts, precision.DP, resilientInit, steps, dt)

	halo, sync := testTimeouts()
	reg := telemetry.NewRegistry()
	got, rep, err := Run(RunSpec{
		Mesh: m, NLev: nlev, NParts: nparts, Mode: precision.DP, Init: resilientInit, Steps: steps, Dt: dt,
		CheckpointEvery: 2, Dir: t.TempDir(),
		HaloTimeout: halo, SyncTimeout: sync, Reg: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Legs != 1 || rep.Recoveries != 0 {
		t.Fatalf("clean run report: %+v", rep)
	}
	assertBitwise(t, got, plain, "clean resilient run")
	if n := reg.Counter("grist_checkpoint_epochs_total").Value(); n != 2 {
		t.Fatalf("committed %d epochs, want 2", n)
	}
}

// The acceptance test of the tentpole: a rank death injected at a
// seeded step recovers via rollback-and-replay and produces bitwise-
// identical final ps and vor fields to an uninjected run, visible as
// grist_recovery_total.
func TestRankDeathRecoversBitwise(t *testing.T) {
	m := sharedMesh3
	nlev, nparts, steps, dt := 4, 4, 9, 90.0
	plain := RunDistributedDynamics(m, nlev, nparts, precision.DP, resilientInit, steps, dt)

	prof := fault.Profile{Name: "rankdeath", KillRank: 2, KillStep: 7}
	plan := fault.NewPlan(31, prof)
	halo, sync := testTimeouts()
	reg := telemetry.NewRegistry()
	got, rep, err := Run(RunSpec{
		Mesh: m, NLev: nlev, NParts: nparts, Mode: precision.DP, Init: resilientInit, Steps: steps, Dt: dt,
		Injector:        plan,
		CheckpointEvery: 3, Dir: t.TempDir(),
		HaloTimeout: halo, SyncTimeout: sync, Reg: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recoveries != 1 || len(rep.Events) != 1 {
		t.Fatalf("report: %+v", rep)
	}
	ev := rep.Events[0]
	if ev.ResumeStep != 6 || ev.ResumeEpoch != 6 {
		t.Fatalf("resumed at step %d epoch %d, want step 6 epoch 6 (kill at step 7, step-stamped epochs every 3)",
			ev.ResumeStep, ev.ResumeEpoch)
	}
	killed := false
	for _, f := range ev.Failures {
		if f.Rank == 2 && f.Kind == "killed" {
			killed = true
		}
	}
	if !killed {
		t.Fatalf("failures do not record the killed rank: %+v", ev.Failures)
	}
	if n := reg.Counter("grist_recovery_total").Value(); n != 1 {
		t.Fatalf("grist_recovery_total = %d, want 1", n)
	}
	if n := reg.Counter("grist_rank_failures_total").Value(); n == 0 {
		t.Fatal("grist_rank_failures_total = 0")
	}

	assertBitwise(t, got, plain, "recovered run")
	// The acceptance criterion names ps and vor explicitly.
	psGot, psWant := got.SurfacePressure(), plain.SurfacePressure()
	for i := range psGot {
		if math.Float64bits(psGot[i]) != math.Float64bits(psWant[i]) {
			t.Fatalf("ps[%d] not bitwise identical after recovery", i)
		}
	}
	vorGot := dycore.NewFromState(got, precision.DP).VorticityAtLevel(2)
	vorWant := dycore.NewFromState(plain, precision.DP).VorticityAtLevel(2)
	for i := range vorGot {
		if math.Float64bits(vorGot[i]) != math.Float64bits(vorWant[i]) {
			t.Fatalf("vor[%d] not bitwise identical after recovery", i)
		}
	}
}

// A rank death with no checkpoint directory still recovers — by
// replaying from the initial state.
func TestRankDeathRecoversWithoutCheckpoints(t *testing.T) {
	m := sharedMesh3
	nlev, nparts, steps, dt := 2, 3, 4, 60.0
	plain := RunDistributedDynamics(m, nlev, nparts, precision.DP, resilientInit, steps, dt)
	plan := fault.NewPlan(5, fault.Profile{Name: "rankdeath", KillRank: 1, KillStep: 2})
	halo, sync := testTimeouts()
	got, rep, err := Run(RunSpec{
		Mesh: m, NLev: nlev, NParts: nparts, Mode: precision.DP, Init: resilientInit, Steps: steps, Dt: dt,
		Injector: plan, HaloTimeout: halo, SyncTimeout: sync,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recoveries != 1 || rep.Events[0].ResumeStep != 0 || rep.Events[0].ResumeEpoch != -1 {
		t.Fatalf("report: %+v, events %+v", rep, rep.Events)
	}
	assertBitwise(t, got, plain, "checkpoint-free recovery")
}

// The satellite property test: injected FP32 bit-flips on the halo wire
// must trip a diag sentinel within one step, across seeds. Mixed mode
// puts FP32 words on the wire; FlipProb 1 corrupts from the very first
// exchange of step 1, and the step-1 health check must catch it.
func TestBitFlipTripsSentinelWithinOneStep(t *testing.T) {
	m := sharedMesh3
	halo, sync := testTimeouts()
	for seed := int64(1); seed <= 8; seed++ {
		plan := fault.NewPlan(seed, fault.Profile{Name: "bitflip", FlipProb: 1})
		reg := telemetry.NewRegistry()
		mon := newTestMonitor(reg)
		_, _, err := Run(RunSpec{
			Mesh: m, NLev: 4, NParts: 4, Mode: precision.Mixed, Init: resilientInit, Steps: 2, Dt: 90,
			Injector:    plan,
			HaloTimeout: halo, SyncTimeout: sync,
			Monitor: mon, MaxRecoveries: 1, Reg: reg,
		})
		if err == nil {
			t.Fatalf("seed %d: unbounded corruption did not fail the run", seed)
		}
		trips := mon.Trips()
		if len(trips) == 0 {
			t.Fatalf("seed %d: no sentinel tripped under FP32 bit-flips", seed)
		}
		if trips[0].Step != 1 {
			t.Fatalf("seed %d: first trip at step %d, want 1 (within one step of corruption)",
				seed, trips[0].Step)
		}
	}
}

// A transient (one-shot) corruption trips the sentinel, rolls back, and
// the replay — with the fault spent — finishes bitwise identical to a
// clean run: detection has become survival.
func TestSentinelTripRollsBackAndReplays(t *testing.T) {
	m := sharedMesh3
	nlev, nparts, steps, dt := 4, 4, 6, 90.0
	plain := RunDistributedDynamics(m, nlev, nparts, precision.Mixed, resilientInit, steps, dt)

	plan := fault.NewPlan(17, fault.Profile{Name: "bitflip", FlipProb: 1, MaxFlips: 1})
	halo, sync := testTimeouts()
	reg := telemetry.NewRegistry()
	mon := newTestMonitor(reg)
	got, rep, err := Run(RunSpec{
		Mesh: m, NLev: nlev, NParts: nparts, Mode: precision.Mixed, Init: resilientInit, Steps: steps, Dt: dt,
		Injector:        plan,
		CheckpointEvery: 3, Dir: t.TempDir(),
		HaloTimeout: halo, SyncTimeout: sync,
		Monitor: mon, Reg: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recoveries == 0 {
		t.Fatal("one-shot corruption caused no rollback — the sentinel path was not exercised")
	}
	sentinel := false
	for _, f := range rep.Events[0].Failures {
		if f.Kind == "sentinel" {
			sentinel = true
		}
	}
	if !sentinel {
		t.Fatalf("leg 0 failures are not sentinel trips: %+v", rep.Events[0].Failures)
	}
	if plan.Flips() != 1 {
		t.Fatalf("plan fired %d flips, want exactly 1", plan.Flips())
	}
	assertBitwise(t, got, plain, "post-rollback replay")
}

// A fault that replays into the same failure forever must exhaust
// MaxRecoveries and return an error, not loop.
func TestUnrecoverableFaultGivesUp(t *testing.T) {
	m := sharedMesh3
	halo, sync := testTimeouts()
	reg := telemetry.NewRegistry()
	plan := fault.NewPlan(3, fault.Profile{Name: "bitflip", FlipProb: 1}) // unlimited flips
	_, rep, err := Run(RunSpec{
		Mesh: m, NLev: 2, NParts: 3, Mode: precision.Mixed, Init: resilientInit, Steps: 3, Dt: 60,
		Injector:    plan,
		HaloTimeout: halo, SyncTimeout: sync,
		Monitor: newTestMonitor(reg), MaxRecoveries: 2, Reg: reg,
	})
	if err == nil {
		t.Fatal("permanently corrupted run reported success")
	}
	if rep.Recoveries != 2 {
		t.Fatalf("performed %d recoveries, want MaxRecoveries=2", rep.Recoveries)
	}
}

// Shard round-trip: write, read into a fresh state, bitwise equality on
// the rank's region; and the committed-epoch scan must skip an epoch
// whose shard was corrupted on disk.
func TestShardStoreRoundTripAndCorruption(t *testing.T) {
	m := sharedMesh3
	nlev, nparts := 3, 4
	pl := NewDistPlan(m, nlev, nparts, 12345)
	dir := t.TempDir()
	st, err := NewShardStore(dir, pl)
	if err != nil {
		t.Fatal(err)
	}
	src := dycore.NewState(m, nlev)
	resilientInit(src)
	for p := 0; p < nparts; p++ {
		if err := st.WriteShard(1, p, 5, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(1, 5); err != nil {
		t.Fatal(err)
	}
	epoch, step, ok := st.LatestCommitted()
	if !ok || epoch != 1 || step != 5 {
		t.Fatalf("LatestCommitted = (%d, %d, %v), want (1, 5, true)", epoch, step, ok)
	}

	for p := 0; p < nparts; p++ {
		dst := dycore.NewState(m, nlev)
		gotStep, err := st.ReadShard(1, p, dst)
		if err != nil {
			t.Fatal(err)
		}
		if gotStep != 5 {
			t.Fatalf("shard step %d, want 5", gotStep)
		}
		ni := nlev + 1
		for _, c := range pl.DiagCells[p] {
			for k := 0; k < nlev; k++ {
				if dst.DryMass[int(c)*nlev+k] != src.DryMass[int(c)*nlev+k] {
					t.Fatalf("rank %d cell %d DryMass mismatch", p, c)
				}
			}
			for k := 0; k < ni; k++ {
				if dst.Phi[int(c)*ni+k] != src.Phi[int(c)*ni+k] {
					t.Fatalf("rank %d cell %d Phi mismatch", p, c)
				}
			}
		}
	}

	// Flip one payload byte of rank 2's shard: ReadShard must refuse,
	// and the epoch must stop being recoverable.
	path := filepath.Join(dir, "shard-e000001-r0002.grist")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadShard(1, 2, dycore.NewState(m, nlev)); err == nil {
		t.Fatal("corrupted shard was accepted")
	}
	if _, _, ok := st.LatestCommitted(); ok {
		t.Fatal("LatestCommitted offered an epoch with a corrupt shard")
	}
}

// An interrupted epoch (shards present, manifest missing) must not be
// recoverable, while the previous committed epoch still is.
func TestLatestCommittedIgnoresUncommittedEpoch(t *testing.T) {
	m := sharedMesh3
	pl := NewDistPlan(m, 2, 3, 12345)
	st, err := NewShardStore(t.TempDir(), pl)
	if err != nil {
		t.Fatal(err)
	}
	src := dycore.NewState(m, 2)
	resilientInit(src)
	for p := 0; p < 3; p++ {
		if err := st.WriteShard(1, p, 4, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(1, 4); err != nil {
		t.Fatal(err)
	}
	// Epoch 2: only two of three shards land before the "crash".
	for p := 0; p < 2; p++ {
		if err := st.WriteShard(2, p, 8, src); err != nil {
			t.Fatal(err)
		}
	}
	epoch, step, ok := st.LatestCommitted()
	if !ok || epoch != 1 || step != 4 {
		t.Fatalf("LatestCommitted = (%d, %d, %v), want the committed epoch (1, 4, true)", epoch, step, ok)
	}
}
