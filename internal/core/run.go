package core

// The one rank loop (DESIGN.md §8). Run is the only driver of distributed
// dynamics, dry or with tracer transport, and its rank body the only step
// loop: fault gating, deadline-bounded waits, the tracer sub-cycle, health
// sentinels, checkpoint epochs, live repartition and per-rank tracing are
// guarded blocks of that loop, armed by RunSpec fields, and rollback,
// shrink and grow are cases of the one leg loop around it — a leg being
// one comm.World of fixed shape. Replay is bitwise-faithful: shards store
// the full owned+halo region each rank's kernels read, and one-shot
// injected faults stay spent across legs. In DP the final state is
// bitwise independent of every reshape and repartition: per-entity
// kernels have decomposition-independent stencil order and halo mirrors
// are exact at step boundaries.

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sync"
	"time"

	"gristgo/internal/comm"
	"gristgo/internal/diag"
	"gristgo/internal/dycore"
	"gristgo/internal/mesh"
	"gristgo/internal/partition"
	"gristgo/internal/precision"
	"gristgo/internal/telemetry"
	"gristgo/internal/tracer"
)

// defaultSeed keys every static decomposition (and, through
// partition.EpochSeed, every later one), so a shard directory written by
// a run is readable by any NewDistPlan over the same mesh and part count.
const defaultSeed = 12345

// StepGate lets a fault plan veto a node's next step: PermitStep
// returning false makes the rank exit before step (0-based, global),
// simulating a node death that peers detect through halo and barrier
// deadlines. The gate is addressed by stable node id, not leg rank, so a
// kill stays aimed at the same node across reshapes.
type StepGate interface {
	PermitStep(rank, step int) bool
}

// GrowEvent schedules a scale-up: at the step boundary the run
// checkpoints, absorbs Add nodes (the lowest free node ids — a failed
// node re-joins under its old id), repartitions and continues.
type GrowEvent struct {
	Step int
	Add  int
}

// DeathPolicy says what a run does with a node classified dead.
type DeathPolicy int

const (
	// RollBack replays from the newest committed epoch (or the initial
	// state) on the same world shape: the node is assumed restarted.
	RollBack DeathPolicy = iota
	// Shrink drops the node, repartitions over the survivors, re-shards
	// the newest committed epoch to them and continues. Only a positively
	// classified death ("killed") removes a node: a timeout witnessed by
	// its peers is collateral, and a timeout with no death at all rolls
	// back on the same shape.
	Shrink
)

// RunSpec describes one distributed dynamics run, dry or with tracer
// transport. The first seven fields are the problem; every other field
// arms one block of the rank loop and costs a nil/zero compare per step
// when unset. A spec with no Injector, no Dir and no Monitor is a plain
// run: no deadline is armed, and a rank panic crashes the process with
// its own trace instead of becoming a recovery attempt.
type RunSpec struct {
	Mesh   *mesh.Mesh
	NLev   int
	NParts int
	Mode   precision.Mode
	Init   func(*dycore.State) // writes the same full initial state on every rank
	Steps  int
	Dt     float64

	// Tracers adds the sub-cycled tracer transport: every rank copies this
	// initial field the way Init writes the state, and after every
	// TracerEvery dynamics steps (a divisor of Steps) advects it over the
	// elapsed interval with the averaged, halo-completed FP64 mass flux.
	// The merged final field comes back as RunReport.Tracers. Shards do
	// not store tracers, so a tracer run takes neither CheckpointEvery/Dir
	// (nor, with them, Shrink or Grow) nor RebalanceAt.
	Tracers     *tracer.Field
	TracerEvery int

	// Blocking forces blocking halo rounds (the overlap check's parity leg).
	Blocking bool

	// Injector is installed on each leg's world; a StepGate can kill nodes.
	Injector comm.Injector

	// CheckpointEvery > 0 writes a shard epoch, stamped with the step
	// number, every N steps into Dir; both or neither. Shrink and Grow
	// need them: what they re-shard is a committed epoch.
	CheckpointEvery int
	Dir             string

	// HaloTimeout bounds every halo Finish, SyncTimeout the barrier ahead
	// of each commit, health agreement and the final gather. Both default
	// to 2s except in a plain run, which waits unbounded. Choose them well
	// above one step's compute time: a rank that is merely slow must never
	// straddle the deadline.
	HaloTimeout time.Duration
	SyncTimeout time.Duration

	// MaxRecoveries bounds failed legs (default 3 under RollBack, 6 under
	// Shrink): a fault that replays into the same failure gives up here.
	MaxRecoveries int
	OnDeath       DeathPolicy
	Grow          []GrowEvent // ascending steps inside (0, Steps)

	// Monitor turns on the sentinel check after every step: the ranks
	// agree on the global dry mass and their NaN/Inf counts, and a trip
	// aborts the leg for rollback before the state can be committed.
	Monitor *diag.HealthMonitor

	// RebalanceAt lists step boundaries inside (0, Steps) where the world
	// repartitions live from measured per-rank cost: leg wall time, or
	// under Attributed wall minus measured halo wait. In lockstep walls
	// equalize — peers absorb a straggler's excess as wait — so only the
	// latter localizes load.
	RebalanceAt []int
	Attributed  bool

	// InitialWeights (one per mesh cell) skews the first decomposition.
	InitialWeights []int32

	// Recs holds one flight recorder per initial node: engine and
	// exchanger spans land in the node's own ring, stamped with its own
	// step counter, ready for obs.Merge. The same recorder in every slot
	// gives one shared ring.
	Recs []*telemetry.Recorder

	// Reg receives the run's metrics (DESIGN.md §7): world size, comm
	// share, halo bytes per step, recovery, failure, checkpoint and
	// repartition counters, and grist_load_imbalance as the current plan's
	// capacity-relative cell imbalance.
	Reg *telemetry.Registry
}

// RankFailure describes one node's failure during a leg.
type RankFailure struct {
	Rank   int    `json:"rank"` // stable node id
	Kind   string `json:"kind"` // "killed", "timeout", "sentinel", "panic"
	Reason string `json:"reason"`
}

// RunEvent records one change of course: a failed leg replayed
// ("rollback") or continued on the survivors ("shrink"), a scheduled
// "grow", or a live "rebalance" inside a leg.
type RunEvent struct {
	Kind        string        `json:"kind"`
	Leg         int           `json:"leg"`            // 0-based leg that failed, paused or rebalanced
	Step        int           `json:"step,omitempty"` // rebalance: the step boundary
	Members     []int         `json:"members"`        // node ids after the event
	Epoch       int           `json:"epoch"`          // decomposition epoch after the event
	ResumeEpoch int           `json:"resume_epoch"`   // newest committed checkpoint epoch; -1: initial state
	ResumeStep  int           `json:"resume_step"`
	Failures    []RankFailure `json:"failures,omitempty"`
	RepartMS    float64       `json:"repartition_ms,omitempty"`
	RedistribMS float64       `json:"redistribute_ms,omitempty"`
	Skipped     string        `json:"skipped,omitempty"` // why the partitioner kept the old plan
}

// RunReport summarizes a run.
type RunReport struct {
	Legs       int        // legs run, including the successful one
	Recoveries int        // failed legs recovered from
	Rebalances int        // live repartitions applied
	Events     []RunEvent // in order of occurrence

	FinalMembers []int
	FinalEpoch   int

	// Per leg: world size and the capacity-relative cell-load imbalance
	// (max owned cells * capacity / total cells, capacity being the
	// largest world so far): ~1 on a full world, > 1 on one missing nodes
	// even when the survivors are balanced — what a grow would recover.
	WorldSizes   []int
	LegImbalance []float64

	// The final leg: the state exchangers' statistics summed over ranks,
	// per-rank loop wall time, and per rank the compute (wall − halo wait)
	// and halo wait seconds since the last repartition, with max/mean of
	// the compute.
	Exchange        comm.ExchangeStats
	RankWall        []time.Duration
	FinalComputeSec []float64
	FinalWaitSec    []float64
	FinalImbalance  float64

	// Tracers is the merged final tracer field (nil without RunSpec.Tracers).
	Tracers *tracer.Field
}

// abort is the panic value a rank leaves a leg with on purpose: "killed"
// by the gate before a step, or a "sentinel" trip after one.
type abort struct {
	kind string
	step int
}

func (a abort) String() string { return fmt.Sprintf("%s at step %d", a.kind, a.step) }

func (s *RunSpec) validate() error {
	ckpt := s.CheckpointEvery > 0
	switch {
	case s.Mesh == nil:
		return fmt.Errorf("core: RunSpec.Mesh is nil")
	case s.Init == nil:
		return fmt.Errorf("core: RunSpec.Init is nil")
	case s.InitialWeights != nil && len(s.InitialWeights) != s.Mesh.NCells:
		return fmt.Errorf("core: RunSpec.InitialWeights holds %d weights for %d cells", len(s.InitialWeights), s.Mesh.NCells)
	case s.Recs != nil && len(s.Recs) != s.NParts:
		return fmt.Errorf("core: RunSpec.Recs holds %d recorders for NParts %d", len(s.Recs), s.NParts)
	case ckpt != (s.Dir != ""):
		return fmt.Errorf("core: RunSpec.Dir and CheckpointEvery go together (Dir %q, CheckpointEvery %d)", s.Dir, s.CheckpointEvery)
	case len(s.Grow) > 0 && !ckpt:
		return fmt.Errorf("core: RunSpec.Grow needs CheckpointEvery and Dir")
	case s.OnDeath == Shrink && !ckpt:
		return fmt.Errorf("core: RunSpec.OnDeath Shrink needs CheckpointEvery and Dir")
	case (s.Tracers != nil) != (s.TracerEvery > 0):
		return fmt.Errorf("core: RunSpec.Tracers and TracerEvery > 0 go together (TracerEvery %d)", s.TracerEvery)
	case s.Tracers == nil: // the cases below restrict tracer runs
	case len(s.Tracers.Mass) != s.Mesh.NCells*s.NLev:
		return fmt.Errorf("core: RunSpec.Tracers holds %d values for %d cells x %d levels", len(s.Tracers.Mass), s.Mesh.NCells, s.NLev)
	case s.Steps%s.TracerEvery != 0:
		return fmt.Errorf("core: RunSpec.TracerEvery %d does not divide Steps %d", s.TracerEvery, s.Steps)
	case ckpt:
		return fmt.Errorf("core: RunSpec.Tracers cannot combine with CheckpointEvery and Dir: shards do not store tracers")
	case len(s.RebalanceAt) > 0:
		return fmt.Errorf("core: RunSpec.Tracers cannot combine with RebalanceAt: a repartition does not move tracers")
	}
	for _, at := range s.RebalanceAt {
		if at <= 0 || at >= s.Steps {
			return fmt.Errorf("core: RunSpec.RebalanceAt step %d is outside (0, %d)", at, s.Steps)
		}
	}
	prev := 0
	for _, g := range s.Grow {
		if g.Add <= 0 || g.Step <= prev || g.Step >= s.Steps {
			return fmt.Errorf("core: RunSpec.Grow event %+v: need Add > 0 and ascending steps inside (0, %d)", g, s.Steps)
		}
		prev = g.Step
	}
	return nil
}

// run is the state of one Run call: the spec with its defaults filled,
// what the driver carries from leg to leg, and the current leg.
type run struct {
	RunSpec
	resilient bool
	gate      StepGate
	rep       *RunReport
	final     *dycore.State

	pl       *DistPlan // current plan; replaced by replan, between legs or by rank 0 inside one
	store    *ShardStore
	members  []int // members[p] is the node id executing part p
	capacity int

	resumeEpoch, resumeStep, stop int
	mu                            sync.Mutex
	fails                         []RankFailure
	ranks                         []rankResult
}

// rankResult is what a rank leaves behind at the end of the final leg.
type rankResult struct {
	wall          time.Duration
	stats         comm.ExchangeStats
	compute, wait float64 // seconds since the last repartition
}

// Run integrates the dry dynamics for spec.Steps steps of spec.Dt across
// spec.NParts ranks (goroutines), each owning one domain of the
// decomposition, with a halo exchange after every internal stage. It
// returns the merged final state, which matches a serial run of the same
// configuration to rounding, and the report; the error is non-nil for an
// invalid spec, when MaxRecoveries legs have failed, or when a reshape
// cannot be carried out (the report then covers the run so far).
func Run(spec RunSpec) (*dycore.State, *RunReport, error) {
	if err := spec.validate(); err != nil {
		return nil, nil, err
	}
	d := &run{RunSpec: spec, rep: &RunReport{}}
	d.resilient = spec.Injector != nil || spec.Dir != "" || spec.Monitor != nil
	if d.resilient && d.HaloTimeout <= 0 {
		d.HaloTimeout = 2 * time.Second
	}
	if d.resilient && d.SyncTimeout <= 0 {
		d.SyncTimeout = 2 * time.Second
	}
	if d.MaxRecoveries == 0 {
		d.MaxRecoveries = map[DeathPolicy]int{RollBack: 3, Shrink: 6}[d.OnDeath]
	}
	d.gate, _ = spec.Injector.(StepGate)

	dec, err := partition.DecomposeWeighted(spec.Mesh, spec.NParts, defaultSeed, spec.InitialWeights)
	if err != nil {
		return nil, nil, fmt.Errorf("core: RunSpec.NParts is %d: %w", spec.NParts, err)
	}
	d.pl = NewDistPlanFromDecomp(spec.Mesh, spec.NLev, dec)
	if spec.Dir != "" {
		if d.store, err = NewShardStore(spec.Dir, d.pl); err != nil {
			return nil, nil, err
		}
	}
	for n := 0; n < spec.NParts; n++ {
		d.members = append(d.members, n)
	}
	d.final = dycore.NewState(spec.Mesh, spec.NLev)
	if spec.Tracers != nil {
		d.rep.Tracers = tracer.NewField(spec.Mesh, spec.NLev, d.final.DryMass)
	}

	for gi := 0; ; {
		d.resumeEpoch, d.resumeStep = d.latest()
		// The next scheduled grow bounds this leg: the ranks pause there
		// on a forced checkpoint so the reshape sees a committed epoch.
		for gi < len(d.Grow) && d.Grow[gi].Step <= d.resumeStep {
			gi++
		}
		d.stop = d.Steps
		if gi < len(d.Grow) {
			d.stop = d.Grow[gi].Step
		}

		fails := d.leg()
		if len(fails) == 0 {
			if d.stop == d.Steps {
				d.finish()
				return d.final, d.rep, nil
			}
			d.members = growMembers(d.members, d.Grow[gi].Add)
			if _, err := d.replan(RunEvent{Kind: "grow"}, d.pl, nil, true); err != nil {
				return nil, d.rep, err
			}
			gi++
			continue
		}

		d.count("grist_rank_failures_total", int64(len(fails)))
		if d.rep.Recoveries >= d.MaxRecoveries {
			return nil, d.rep, fmt.Errorf("core: run failed after %d recoveries: node %d (%s): %s",
				d.rep.Recoveries, fails[0].Rank, fails[0].Kind, fails[0].Reason)
		}
		d.rep.Recoveries++
		d.count("grist_recovery_total", 1)

		// Phase one of the membership agreement: the surviving node set
		// follows from the classified failures.
		dead := map[int]bool{}
		for _, f := range fails {
			if d.OnDeath == Shrink && f.Kind == "killed" {
				dead[f.Rank] = true
			}
		}
		var survivors []int
		for _, n := range d.members {
			if !dead[n] {
				survivors = append(survivors, n)
			}
		}
		switch len(survivors) {
		case 0:
			return nil, d.rep, fmt.Errorf("core: every node died")
		case len(d.members):
			d.record(RunEvent{Kind: "rollback", Failures: fails})
		default:
			d.members = survivors
			if _, err := d.replan(RunEvent{Kind: "shrink", Failures: fails}, d.pl, nil, true); err != nil {
				return nil, d.rep, err
			}
		}
	}
}

// MustRun is Run for a spec known to be valid: it panics on Run's error.
func MustRun(spec RunSpec) (*dycore.State, *RunReport) {
	s, rep, err := Run(spec)
	if err != nil {
		panic(err)
	}
	return s, rep
}

// latest returns the newest committed checkpoint epoch of the current
// plan and its step, or (-1, 0): replay from the initial state.
func (d *run) latest() (epoch, step int) {
	if d.store != nil {
		if e, s, ok := d.store.LatestCommitted(); ok {
			return e, s
		}
	}
	return -1, 0
}

func (d *run) count(name string, n int64) {
	if d.Reg != nil {
		d.Reg.Counter(name).Add(n)
	}
}

// record completes an event with where the run stands and appends it to
// the report; failures and skipped repartitions are logged as warnings.
func (d *run) record(ev RunEvent) {
	ev.Leg = d.rep.Legs - 1
	ev.Members = d.members // replaced, never mutated
	ev.Epoch = d.pl.Decomp.Epoch
	ev.ResumeEpoch, ev.ResumeStep = d.latest()
	d.rep.Events = append(d.rep.Events, ev)
	level := slog.LevelInfo
	if len(ev.Failures) > 0 || ev.Skipped != "" {
		level = slog.LevelWarn
	}
	slog.Log(context.Background(), level, "distributed run "+ev.Kind,
		"leg", ev.Leg, "step", ev.Step, "members", len(ev.Members), "epoch", ev.Epoch,
		"resume_step", ev.ResumeStep, "failures", ev.Failures, "skipped", ev.Skipped,
		"repart_ms", ev.RepartMS, "redistribute_ms", ev.RedistribMS)
}

// replan derives the successor of prev over the current members, cells
// weighted by cellW (nil: uniform). The decomposition epoch is bumped and
// seeds the partitioner, so every holder of the same (mesh, member count,
// weights, epoch) computes the identical plan without communication —
// phase two of the membership agreement. A nil plan means the
// partitioner could not fill every part.
//
// The lead — the driver between legs, rank 0 inside one — also makes the
// plan the run's and records ev. With checkpoints on it re-shards the
// newest committed epoch to the new owners (a plan returned with an error
// could not be), so a later failure resumes under the plan the run is
// then on; with nothing committed the store is only rebound, since Init
// writes the same initial state under any decomposition.
func (d *run) replan(ev RunEvent, prev *DistPlan, cellW []int32, lead bool) (*DistPlan, error) {
	t0 := time.Now()
	epoch := prev.Decomp.Epoch + 1
	dec, err := partition.DecomposeWeighted(d.Mesh, len(d.members), partition.EpochSeed(defaultSeed, epoch), cellW)
	if err != nil {
		if lead {
			ev.Skipped = err.Error()
			d.record(ev)
		}
		return nil, fmt.Errorf("core: %s over %d nodes: %w", ev.Kind, len(d.members), err)
	}
	dec.Epoch = epoch
	next := NewDistPlanFromDecomp(d.Mesh, d.NLev, dec)
	if !lead {
		return next, nil
	}
	ms := func(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
	ev.RepartMS = ms(t0)
	t1 := time.Now()
	if d.store != nil {
		if e, step, ok := d.store.LatestCommitted(); !ok {
			d.store.SetPlan(next)
		} else if err := d.store.Redistribute(e, step, next); err != nil {
			return next, err
		}
	}
	ev.RedistribMS = ms(t1)
	d.pl = next
	d.record(ev)
	if ev.Kind == "rebalance" {
		d.rep.Rebalances++
	}
	if d.Reg != nil {
		d.Reg.Counter("grist_repartition_total").Inc()
		d.Reg.Gauge("grist_repartition_cost_ms").Set(ev.RepartMS + ev.RedistribMS)
		d.Reg.Gauge("grist_load_imbalance").Set(cellImbalance(next, d.capacity))
	}
	return next, nil
}

// leg runs the ranks of the current plan on a fresh world and returns
// the failures that aborted it (none on success).
func (d *run) leg() []RankFailure {
	n := d.pl.NParts
	d.capacity = max(d.capacity, n)
	imb := cellImbalance(d.pl, d.capacity)
	d.rep.Legs++
	d.rep.WorldSizes = append(d.rep.WorldSizes, n)
	d.rep.LegImbalance = append(d.rep.LegImbalance, imb)
	if d.Reg != nil {
		d.Reg.Gauge("grist_world_size").Set(float64(n))
		d.Reg.Gauge("grist_load_imbalance").Set(imb)
	}
	d.fails, d.ranks = nil, make([]rankResult, n)
	w := comm.NewWorld(n)
	w.SetInjector(d.Injector)
	comm.RunOn(w, d.rank)
	return d.fails
}

// classify is the deferred head of the rank body: in a resilient run it
// turns the rank's panic into a typed failure of its node. A plain run
// does not recover, so the panic crashes the process with its own trace.
func (d *run) classify(node int) {
	if !d.resilient {
		return
	}
	e := recover()
	if e == nil {
		return
	}
	f := RankFailure{Rank: node, Kind: "panic", Reason: fmt.Sprint(e)}
	switch e := e.(type) {
	case abort:
		f.Kind = e.kind
	case *comm.TimeoutError:
		f.Kind = "timeout"
	}
	d.mu.Lock()
	d.fails = append(d.fails, f)
	d.mu.Unlock()
}

// bindOwned points eng at rank p's entity sets under pl, with the halo
// hooks bound to ex: overlapped Start/Finish, or one blocking round.
func bindOwned(eng dycore.Engine, ex *comm.HaloExchanger, pl *DistPlan, p int, blocking bool) {
	o := pl.OwnedSets(p)
	if blocking {
		o.Start = ex.Exchange
	} else {
		o.Start, o.Finish = ex.Start, ex.Finish
	}
	eng.SetOwned(o)
}

// rank is the body every rank of a leg executes.
func (d *run) rank(r *comm.Rank) {
	p := r.ID()
	node := d.members[p]
	defer d.classify(node)

	pl := d.pl
	eng := dycore.New(d.Mesh, d.NLev, d.Mode)
	s := eng.State()
	d.Init(s)
	// The mass-conservation baseline is the initial global mass, summed
	// on rank 0 alone: Init writes the full state on every rank. Resumed
	// legs keep the original baseline.
	if d.Monitor != nil && p == 0 && d.resumeStep == 0 {
		var mass float64
		for q := 0; q < pl.NParts; q++ {
			mass += ownedDryMass(s, pl, q, d.Mesh)
		}
		d.Monitor.ObserveMassBudget(0, mass)
	}
	if d.resumeEpoch >= 0 {
		if _, err := d.store.ReadShard(d.resumeEpoch, p, s); err != nil {
			panic(fmt.Sprintf("loading shard of epoch %d: %v", d.resumeEpoch, err))
		}
	}
	ex := newStateExchanger(pl, r, s, d.Mode)
	ex.SetDeadline(d.HaloTimeout)
	if node < len(d.Recs) {
		eng.SetTelemetry(d.Recs[node], int32(node))
		ex.SetTelemetry(d.Recs[node], int32(node))
	}
	bindOwned(eng, ex, pl, p, d.Blocking)
	var field *tracer.Field
	var subcycle func(step int)
	if d.Tracers != nil {
		field, subcycle = d.tracers(r, pl, eng, node)
	}

	// segment closes the stretch since the last repartition and returns
	// its wall and halo-wait seconds.
	t0 := time.Now()
	segStart, waited := t0, time.Duration(0)
	segment := func() (wall, wait float64) {
		w := ex.Stats().Wait
		wall, wait = time.Since(segStart).Seconds(), (w - waited).Seconds()
		segStart, waited = time.Now(), w
		return wall, wait
	}

	for i := d.resumeStep; i < d.stop; i++ {
		if d.gate != nil && !d.gate.PermitStep(node, i) {
			panic(abort{"killed", i})
		}
		step := i + 1
		// Spans carry this rank's own step counter: concurrently advancing
		// ranks have no shared "current" step.
		eng.SetTelemetryStep(int64(step))
		ex.SetTelemetryStep(int64(step))
		eng.Step(d.Dt)
		if d.TracerEvery > 0 && step%d.TracerEvery == 0 {
			subcycle(step)
		}

		if d.Monitor != nil {
			d.agreeOnHealth(r, pl, s, step)
		}
		if d.store != nil && step < d.Steps && (step == d.stop || step%d.CheckpointEvery == 0) {
			d.checkpoint(r, s, step)
		}
		if slices.Contains(d.RebalanceAt, step) {
			cost, wait := segment()
			if d.Attributed {
				cost = math.Max(cost-wait, 0)
			}
			pl = d.rebalance(r, eng, ex, pl, s, step, cost)
			segStart = time.Now() // the repartition itself is nobody's load
		}
	}
	if d.stop < d.Steps {
		return // cooperative pause for a grow; the reshape takes over
	}

	wall, wait := segment()
	d.ranks[p] = rankResult{time.Since(t0), ex.Stats(), math.Max(wall-wait, 0), wait}
	d.sync(r)
	gatherState(r, d.final, s, d.rep.Tracers, field, pl)
}

// tracers arms rank p's tracer sub-cycle: its copy of the initial field,
// the transport over the plan's tracer region, and one exchanger on the
// plan's tracer layout for the tracer values and the averaged mass flux —
// the one term of the tracer equation that stays FP64 on the wire under
// every mode (§3.4.2). The returned function closes a sub-cycle after its
// last dynamics step: average the flux, one tracer halo round,
// Transport.Step over the elapsed interval, and an emptied accumulator
// for the next sub-cycle (a leg's fresh engine starts with it empty).
func (d *run) tracers(r *comm.Rank, pl *DistPlan, eng dycore.Engine, node int) (*tracer.Field, func(step int)) {
	f := tracer.NewField(d.Mesh, d.NLev, d.Tracers.Mass)
	for t := range f.Q {
		copy(f.Q[t], d.Tracers.Q[t])
	}
	sets, layout := pl.tracerLayout(r.ID())
	trans := tracer.New(d.Mesh, d.NLev, d.Mode)
	trans.SetOwned(sets)
	// avg is persistent: the registration captures the slice.
	avg := make([]float64, len(eng.MassFluxAccum()))
	ex := comm.NewExchangerWithLayout(r, d.Mode, layout)
	ex.SetDeadline(d.HaloTimeout)
	ex.RegisterSlice("tracer_mass", f.Mass, d.NLev, cellSet, false)
	for t := range f.Q {
		ex.RegisterSlice(tracer.Species(t).String(), f.Q[t], d.NLev, cellSet, false)
	}
	ex.RegisterSlice("mass_flux_avg", avg, d.NLev, edgeSet, true)
	if node < len(d.Recs) {
		trans.SetTelemetry(d.Recs[node], int32(node))
		ex.SetTelemetry(d.Recs[node], int32(node))
	}
	dt := float64(d.TracerEvery) * d.Dt
	return f, func(step int) {
		trans.SetTelemetryStep(int64(step))
		ex.SetTelemetryStep(int64(step))
		averageMassFlux(avg, eng)
		ex.Exchange()
		trans.Step(f, avg, dt)
		eng.ResetMassFluxAccum()
	}
}

// sync is the deadline-bounded rendezvous ahead of every collective and
// commit: a dead rank surfaces here as a typed timeout, not a hang.
func (d *run) sync(r *comm.Rank) {
	if err := r.BarrierTimeout(d.SyncTimeout); err != nil {
		panic(err)
	}
}

// agreeOnHealth is the sentinel check: two agreement rounds — first the
// global mass and the summed local NaN/Inf counts, then the verdict
// (rank 0 owns the budget judgement) — so every rank aborts or none
// does, and nobody is left behind in a collective.
func (d *run) agreeOnHealth(r *comm.Rank, pl *DistPlan, s *dycore.State, step int) {
	d.sync(r)
	p := r.ID()
	bad := float64(scanOwnedHealth(d.Monitor, int64(step), s))
	sums := r.AllReduceSum([]float64{ownedDryMass(s, pl, p, d.Mesh), bad})
	verdict := 0.0
	if p == 0 {
		drift := d.Monitor.ObserveMassBudget(int64(step), sums[0])
		if math.IsNaN(drift) || drift > d.Monitor.MassTol {
			verdict = 1
		}
	}
	if sums[1] > 0 {
		verdict = 1
	}
	if r.AllReduceSum([]float64{verdict})[0] > 0 {
		panic(abort{"sentinel", step})
	}
}

// checkpoint writes this rank's shard of the epoch stamped with the step
// number — unique and monotone across reshapes — and rank 0 commits the
// epoch once every shard is durable.
func (d *run) checkpoint(r *comm.Rank, s *dycore.State, step int) {
	p := r.ID()
	if err := d.store.WriteShard(step, p, step, s); err != nil {
		panic(fmt.Sprintf("writing shard of epoch %d: %v", step, err))
	}
	d.sync(r)
	if p == 0 {
		if err := d.store.Commit(step, step); err != nil {
			panic(fmt.Sprintf("committing epoch %d: %v", step, err))
		}
		d.count("grist_checkpoint_epochs_total", 1)
	}
}

// rebalance repartitions the live world from measured cost and returns
// the plan the rank continues on. The ranks agree on the per-rank cost
// and make every state owner-truth everywhere (after the second
// AllGather each rank holds the exact owned values of all ranks, so no
// mirror value can leak into a new owner's region), then each derives
// the identical weighted plan and swaps its halo layout and ownership
// sets in place; if the partitioner fails, all keep their plan.
func (d *run) rebalance(r *comm.Rank, eng dycore.Engine, ex *comm.HaloExchanger,
	pl *DistPlan, s *dycore.State, step int, cost float64) *DistPlan {

	p, n := r.ID(), pl.NParts
	costs := r.AllGather([]float64{cost})
	regions := r.AllGather(packOwnedState(s, nil, pl, p))
	flat := make([]float64, n)
	for q := 0; q < n; q++ {
		flat[q] = costs[q][0]
		if q != p {
			unpackOwnedState(s, nil, pl, q, regions[q])
		}
	}
	ev := RunEvent{Kind: "rebalance", Step: step}
	next, err := d.replan(ev, pl, partition.CostWeights(pl.Decomp.Part, n, flat), p == 0)
	if next == nil {
		return pl
	}
	if err != nil {
		panic(fmt.Sprintf("rebalancing at step %d: %v", step, err))
	}
	if d.store != nil {
		d.sync(r) // rank 0 has rebound the store before anyone writes a shard under the new plan
	}
	ex.SwapLayout(next.Layout(p))
	bindOwned(eng, ex, next, p, d.Blocking)
	return next
}

// finish completes the report from the final leg's per-rank results and
// publishes the run-level gauges.
func (d *run) finish() {
	rep := d.rep
	rep.FinalMembers, rep.FinalEpoch = d.members, d.pl.Decomp.Epoch
	var wallSum time.Duration
	var sum, max float64
	for _, res := range d.ranks {
		rep.Exchange.Rounds += res.stats.Rounds
		rep.Exchange.BytesSent += res.stats.BytesSent
		rep.Exchange.Wait += res.stats.Wait
		rep.RankWall = append(rep.RankWall, res.wall)
		rep.FinalComputeSec = append(rep.FinalComputeSec, res.compute)
		rep.FinalWaitSec = append(rep.FinalWaitSec, res.wait)
		wallSum += res.wall
		sum += res.compute
		max = math.Max(max, res.compute)
	}
	if sum > 0 {
		rep.FinalImbalance = max * float64(len(d.ranks)) / sum
	}
	if d.Reg == nil {
		return
	}
	if wallSum > 0 {
		d.Reg.Gauge("grist_comm_share").Set(float64(rep.Exchange.Wait) / float64(wallSum))
	}
	if n := d.Steps - d.resumeStep; n > 0 {
		d.Reg.Gauge("grist_halo_bytes_per_step").Set(float64(rep.Exchange.BytesSent) / float64(n))
	}
	// Ring-wrap drops poison postmortem attribution silently; surface
	// them as a counter so a scrape (or the obs report) can warn.
	seen := map[*telemetry.Recorder]bool{}
	for _, rec := range d.Recs {
		if !seen[rec] {
			seen[rec] = true
			telemetry.NewDropCounter(d.Reg, rec).Publish()
		}
	}
}

// cellImbalance is the capacity-relative load imbalance of a plan: the
// busiest rank's owned-cell count over the per-slot ideal share.
func cellImbalance(pl *DistPlan, capacity int) float64 {
	maxOwned := 0
	for p := 0; p < pl.NParts; p++ {
		maxOwned = max(maxOwned, len(pl.TendCells[p]))
	}
	return float64(maxOwned) * float64(capacity) / float64(pl.Mesh.NCells)
}

// growMembers extends the member set by add fresh nodes, reusing the
// lowest free node ids first (a dead node's id is the first to return),
// and returns it sorted: part p is executed by the p-th smallest id.
func growMembers(members []int, add int) []int {
	in := make(map[int]bool, len(members))
	for _, n := range members {
		in[n] = true
	}
	out := append([]int(nil), members...)
	for id := 0; add > 0; id++ {
		if !in[id] {
			out = append(out, id)
			in[id] = true
			add--
		}
	}
	slices.Sort(out)
	return out
}

// scanOwnedHealth counts this rank's non-finite prognostic values,
// recording trips through the shared monitor.
func scanOwnedHealth(h *diag.HealthMonitor, step int64, s *dycore.State) int {
	n := h.CheckFinite(step, "dry_mass", s.DryMass)
	n += h.CheckFinite(step, "theta_m", s.ThetaM)
	n += h.CheckFinite(step, "u", s.U)
	n += h.CheckFinite(step, "w", s.W)
	return n
}

// ownedDryMass integrates dry mass over rank p's owned cells; the
// AllReduce of these partials is the global budget integral.
func ownedDryMass(s *dycore.State, pl *DistPlan, p int, m *mesh.Mesh) float64 {
	nlev := pl.NLev
	var total float64
	for _, c := range pl.TendCells[p] {
		var col float64
		base := int(c) * nlev
		for k := 0; k < nlev; k++ {
			col += s.DryMass[base+k]
		}
		total += col * m.CellArea[c]
	}
	return total
}
