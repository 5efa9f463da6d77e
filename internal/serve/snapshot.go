// Package serve is the forecast-as-a-service query plane: it turns a
// running (or replayed) model into a product surface that answers
// point, region and time-range queries over HTTP at web scale.
//
// The pipeline is
//
//	model / ShardStore ──► SnapshotStore (immutable per-epoch fields)
//	                          │
//	                      Tiler (fixed spatial tiles over the mesh)
//	                          │
//	                      TileCache (LRU, keyed by epoch/tile/field)
//	                          │            + singleflight coalescing
//	                      Engine ──► HTTP API (/v1/point, /v1/region,
//	                                 /v1/range) with per-tenant quotas
//	                                 and bounded-queue backpressure
//
// Snapshots are derived once per epoch and never mutated afterwards;
// every byte handed to a client is a copy, so no query handler can
// write model state.
package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"gristgo/internal/core"
	"gristgo/internal/detrand"
	"gristgo/internal/durable"
	"gristgo/internal/dycore"
	"gristgo/internal/mesh"
	"gristgo/internal/telemetry"
)

// The served field set: 2D per-cell diagnostics derived from the
// prognostic state at snapshot-build time. Indices are the compact
// field ids used in tile cache keys.
const (
	FieldPS   = iota // surface pressure, Pa
	FieldTSfc        // lowest-layer temperature, K
	FieldUSfc        // lowest-layer eastward wind, m/s
	FieldVSfc        // lowest-layer northward wind, m/s
	FieldWMax        // column-max |vertical velocity|, m/s
	NumFields
)

// FieldNames lists the served fields in id order (the wire names).
var FieldNames = [NumFields]string{"ps", "t_sfc", "u_sfc", "v_sfc", "w_max"}

// FieldID resolves a wire name to its field id.
func FieldID(name string) (int, bool) {
	for i, n := range FieldNames {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// Snapshot is one immutable epoch of served fields over the full mesh.
// The backing arrays are private and written only by the builder;
// readers get values or copies, never the slices.
type Snapshot struct {
	Epoch int
	Step  int
	data  [NumFields][]float64 // per field: per-cell values
}

// Value returns field f at cell c.
func (s *Snapshot) Value(f int, c int32) float64 { return s.data[f][c] }

// NCells returns the cell count the snapshot spans.
func (s *Snapshot) NCells() int { return len(s.data[0]) }

// Checksum folds every field into one FNV-style hash — the mutation
// tests' witness that serving queries leaves snapshots untouched.
func (s *Snapshot) Checksum() uint64 {
	h := uint64(1469598103934665603)
	for f := 0; f < NumFields; f++ {
		for _, v := range s.data[f] {
			h ^= math.Float64bits(v)
			h *= 1099511628211
		}
	}
	return h
}

// SnapshotFromState derives the served fields from a full-mesh dynamics
// state. Every value is computed into freshly owned arrays; the state
// is only read.
func SnapshotFromState(epoch, step int, s *dycore.State) *Snapshot {
	m := s.M
	nlev := s.NLev
	snap := &Snapshot{Epoch: epoch, Step: step}
	// Only the surface winds are served: reconstruct them from the
	// surface edge winds as a one-level field, whose per-cell values are
	// the served ones.
	kSfc := nlev - 1
	uSfc := make([]float64, m.NEdges)
	for e := range uSfc {
		uSfc[e] = s.U[e*nlev+kSfc]
	}
	snap.data[FieldUSfc], snap.data[FieldVSfc] = core.CellWinds(m, uSfc, 1)
	for _, f := range []int{FieldPS, FieldTSfc, FieldWMax} {
		snap.data[f] = make([]float64, m.NCells)
	}
	// Every cell is independent, so the split across workers changes no bit.
	mesh.ParallelFor(runtime.GOMAXPROCS(0), mesh.IdentityIDs(m.NCells), func(ids []int32) {
		for _, c := range ids {
			base := int(c) * nlev
			var colMass float64
			for k := 0; k < nlev; k++ {
				colMass += s.DryMass[base+k]
			}
			ps := dycore.PTop + colMass
			snap.data[FieldPS][c] = ps
			dpi := s.DryMass[base+kSfc]
			p := ps - 0.5*dpi
			theta := s.ThetaM[base+kSfc] / dpi
			snap.data[FieldTSfc][c] = theta * math.Pow(p/dycore.P0, dycore.Rd/dycore.Cp)
			var wmax float64
			ibase := int(c) * (nlev + 1)
			for k := 0; k <= nlev; k++ {
				if w := math.Abs(s.W[ibase+k]); w > wmax {
					wmax = w
				}
			}
			snap.data[FieldWMax][c] = wmax
		}
	})
	return snap
}

// SnapshotStore publishes immutable snapshots and retains a bounded
// window of recent epochs for time-range queries. Safe for one
// publisher and any number of concurrent readers.
type SnapshotStore struct {
	mu      sync.RWMutex
	retain  int
	byEpoch map[int]*Snapshot
	epochs  []int // ascending
}

// NewSnapshotStore returns a store keeping the newest `retain` epochs
// (minimum 1).
func NewSnapshotStore(retain int) *SnapshotStore {
	if retain < 1 {
		retain = 1
	}
	return &SnapshotStore{retain: retain, byEpoch: map[int]*Snapshot{}}
}

// Publish installs snap, evicting the oldest epochs beyond the
// retention window. Re-publishing an existing epoch replaces it.
func (st *SnapshotStore) Publish(snap *Snapshot) {
	st.mu.Lock()
	if _, ok := st.byEpoch[snap.Epoch]; !ok {
		st.epochs = append(st.epochs, snap.Epoch)
		sort.Ints(st.epochs)
	}
	st.byEpoch[snap.Epoch] = snap
	for len(st.epochs) > st.retain {
		delete(st.byEpoch, st.epochs[0])
		st.epochs = st.epochs[1:]
	}
	st.mu.Unlock()
}

// Latest returns the newest snapshot (nil while empty).
func (st *SnapshotStore) Latest() *Snapshot {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if len(st.epochs) == 0 {
		return nil
	}
	return st.byEpoch[st.epochs[len(st.epochs)-1]]
}

// At returns the snapshot of one epoch.
func (st *SnapshotStore) At(epoch int) (*Snapshot, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s, ok := st.byEpoch[epoch]
	return s, ok
}

// Epochs returns the retained epoch numbers, ascending (a copy).
func (st *SnapshotStore) Epochs() []int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return append([]int(nil), st.epochs...)
}

// Verification-failure classes for quarantined epochs: the reason
// label on grist_serve_quarantined_total.
const (
	FailMissing = "missing" // a shard file does not exist
	FailTorn    = "torn"    // shards disagree on the step (torn commit)
	FailCorrupt = "corrupt" // CRC / header / plan-match verification failed
	FailIO      = "io"      // the read itself errored (EIO, permissions)
)

// classifyLoadError maps a LoadEpochSurface failure onto a quarantine
// reason by the sentinel it wraps.
func classifyLoadError(err error) string {
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return FailMissing
	case errors.Is(err, core.ErrTornEpoch):
		return FailTorn
	case errors.Is(err, durable.ErrCorrupt):
		return FailCorrupt
	default:
		return FailIO
	}
}

// quarantineEntry tracks one corrupt epoch: how often it has failed
// verification, when (in poll ticks) the next retry is due, and why it
// was quarantined last.
type quarantineEntry struct {
	Fails   int
	RetryAt int
	Reason  string
}

// ShardPoller watches a core.ShardStore for newly committed checkpoint
// epochs and publishes them as snapshots — the live bridge between a
// resilient run (or a replay directory) and the serving plane. Epochs
// that fail verification are quarantined: skipped, retried with
// jittered exponential backoff (in units of polls), and un-quarantined
// when a re-read verifies or when they age out of the retention
// window. Not safe for concurrent Poll calls; drive it from one
// goroutine (accessors are safe from others).
type ShardPoller struct {
	src     *core.ShardStore
	dst     *SnapshotStore
	scratch *dycore.State // only what LoadEpochSurface restores is current
	seed    int64

	mu         sync.Mutex
	last       int // scan frontier: highest epoch attempted (published OR quarantined); -1: none
	published  int // newest epoch actually published (-1: none)
	head       int // newest committed epoch seen on disk (-1: none)
	polls      int // Poll invocation counter — the backoff clock
	staleness  int // committed epochs the published head lags, as of last Poll
	quarantine map[int]*quarantineEntry

	log *slog.Logger

	quarantinedTotal   map[string]*telemetry.Counter // by reason
	unquarantinedTotal *telemetry.Counter
	quarantineSize     *telemetry.Gauge
	stalenessGauge     *telemetry.Gauge
}

// NewShardPoller builds a poller over src publishing into dst.
func NewShardPoller(src *core.ShardStore, dst *SnapshotStore) *ShardPoller {
	pl := src.Plan()
	return &ShardPoller{
		src:        src,
		dst:        dst,
		scratch:    dycore.NewState(pl.Mesh, pl.NLev),
		last:       -1,
		published:  -1,
		head:       -1,
		quarantine: map[int]*quarantineEntry{},
	}
}

// SetSeed fixes the jitter stream of the quarantine backoff (default 0:
// still deterministic, just the zero stream).
func (p *ShardPoller) SetSeed(seed int64) { p.seed = seed }

// SetLogger attaches a structured logger for quarantine transitions.
func (p *ShardPoller) SetLogger(lg *slog.Logger) { p.log = lg }

// SetMetrics registers the poller's quarantine and staleness series on
// reg: grist_serve_quarantined_total{reason}, un-quarantine count,
// live quarantine size, and the staleness gauge (committed epochs the
// serving head lags behind).
func (p *ShardPoller) SetMetrics(reg *telemetry.Registry) {
	p.quarantinedTotal = map[string]*telemetry.Counter{}
	for _, r := range []string{FailMissing, FailTorn, FailCorrupt, FailIO} {
		p.quarantinedTotal[r] = reg.Counter("grist_serve_quarantined_total", "reason", r)
	}
	p.unquarantinedTotal = reg.Counter("grist_serve_unquarantined_total")
	p.quarantineSize = reg.Gauge("grist_serve_quarantine_size")
	p.stalenessGauge = reg.Gauge("grist_serve_staleness_epochs")
}

// retryDelay returns the poll-tick backoff before the fails-th retry of
// an epoch: exponential (1, 2, 4, 8, 16 capped) plus a deterministic
// jitter of up to half the step, so a directory of quarantined epochs
// does not retry in lockstep.
func (p *ShardPoller) retryDelay(epoch, fails int) int {
	shift := fails - 1
	if shift > 4 {
		shift = 4
	}
	base := 1 << shift
	h := detrand.Fold(detrand.Step(uint64(p.seed)^0x71726E74), uint64(epoch))
	h = detrand.Fold(h, uint64(fails))
	return base + int(detrand.Unit(h)*float64(base)*0.5)
}

// Poll scans the committed-epoch list, publishes every new epoch that
// verifies, quarantines those that do not, and retries quarantined
// epochs whose backoff expired. Returns how many snapshots were
// published. The error reports a failure to make ANY forward progress
// this tick — the epoch list was unreadable, or the newest committed
// epoch failed verification on first attempt — so a caller can back
// off; quarantined epochs awaiting retry are not errors.
func (p *ShardPoller) Poll() (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.polls++
	epochs, err := p.src.CommittedEpochs()
	if err != nil {
		return 0, fmt.Errorf("serve: listing committed epochs: %w", err)
	}
	if len(epochs) == 0 {
		p.updateGaugesLocked(epochs)
		return 0, nil
	}
	p.head = epochs[len(epochs)-1].Epoch

	// The first poll backfills at most the retention window.
	floor := -1
	if p.last < 0 {
		floor = p.head - p.dst.retain
	}

	var due []int
	for _, ei := range epochs {
		e := ei.Epoch
		if e <= floor {
			continue
		}
		q := p.quarantine[e]
		if e <= p.last && q == nil {
			continue // already published (or aged out) — never re-derive
		}
		if q != nil && p.polls < q.RetryAt {
			continue // quarantined, retry not due yet
		}
		due = append(due, e)
	}

	published := 0
	var headErr error
	result := p.derive(due)
	for i, e := range due {
		q := p.quarantine[e]
		snap, err := result(i)
		if err != nil {
			reason := classifyLoadError(err)
			first := q == nil
			if first {
				q = &quarantineEntry{}
				p.quarantine[e] = q
			}
			q.Fails++
			q.Reason = reason
			q.RetryAt = p.polls + p.retryDelay(e, q.Fails)
			if first {
				if c := p.quarantinedTotal[reason]; c != nil {
					c.Inc()
				}
				if p.log != nil {
					p.log.Warn("epoch quarantined", "epoch", e, "reason", reason, "err", err)
				}
			}
			if e == p.head && first {
				headErr = fmt.Errorf("serve: loading committed epoch %d: %w", e, err)
			}
			if e > p.last {
				p.last = e
			}
			continue
		}
		p.dst.Publish(snap)
		published++
		if q != nil {
			delete(p.quarantine, e)
			if p.unquarantinedTotal != nil {
				p.unquarantinedTotal.Inc()
			}
			if p.log != nil {
				p.log.Info("epoch un-quarantined", "epoch", e, "fails", q.Fails)
			}
		}
		if e > p.last {
			p.last = e
		}
		if e > p.published {
			p.published = e
		}
	}

	// Quarantined epochs below the retention window can never be served
	// again; keeping them would retry (and leak) forever.
	for e := range p.quarantine {
		if e <= p.head-p.dst.retain {
			delete(p.quarantine, e)
			if p.log != nil {
				p.log.Info("quarantined epoch aged out", "epoch", e)
			}
		}
	}
	p.updateGaugesLocked(epochs)
	return published, headErr
}

// derive loads and derives the snapshots of the due epochs (ascending)
// and returns a function that blocks until the i-th is ready; the caller
// asks for them in order. One due epoch (every poll after the first,
// while the poller keeps up) is derived on the caller's goroutine into
// the poller's scratch. A backfill runs on up to GOMAXPROCS workers, the
// first with the poller's scratch and each other with its own, made for
// this poll only. A snapshot depends only on its epoch's files, never on
// what a scratch held before, so every worker count derives the same
// bits.
func (p *ShardPoller) derive(due []int) func(i int) (*Snapshot, error) {
	load := func(e int, s *dycore.State) (*Snapshot, error) {
		step, err := p.src.LoadEpochSurface(e, s)
		if err != nil {
			return nil, err
		}
		return SnapshotFromState(e, step, s), nil
	}
	workers := min(runtime.GOMAXPROCS(0), len(due))
	if workers <= 1 {
		return func(i int) (*Snapshot, error) { return load(due[i], p.scratch) }
	}
	type derived struct {
		snap *Snapshot
		err  error
		done chan struct{}
	}
	out := make([]derived, len(due))
	for i := range out {
		out[i].done = make(chan struct{})
	}
	var next atomic.Int64
	pl := p.src.Plan()
	for w := range workers {
		scratch := p.scratch
		if w > 0 {
			scratch = dycore.NewState(pl.Mesh, pl.NLev)
		}
		go func() {
			for i := int(next.Add(1) - 1); i < len(due); i = int(next.Add(1) - 1) {
				out[i].snap, out[i].err = load(due[i], scratch)
				close(out[i].done)
			}
		}()
	}
	return func(i int) (*Snapshot, error) {
		<-out[i].done
		return out[i].snap, out[i].err
	}
}

// updateGaugesLocked refreshes the staleness and quarantine-size
// series. Caller holds p.mu.
func (p *ShardPoller) updateGaugesLocked(epochs []core.EpochInfo) {
	behind := 0
	for _, ei := range epochs {
		if ei.Epoch > p.published {
			behind++
		}
	}
	p.staleness = behind
	if p.stalenessGauge != nil {
		p.stalenessGauge.Set(float64(behind))
	}
	if p.quarantineSize != nil {
		p.quarantineSize.Set(float64(len(p.quarantine)))
	}
}

// Staleness returns how many committed epochs the newest published
// snapshot lags behind, as of the last Poll. Zero while fully caught
// up (or before anything is committed).
func (p *ShardPoller) Staleness() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.staleness
}

// Quarantined returns the quarantined epoch numbers, ascending.
func (p *ShardPoller) Quarantined() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, 0, len(p.quarantine))
	for e := range p.quarantine {
		out = append(out, e)
	}
	sort.Ints(out)
	return out
}

// Mesh returns the mesh the poller's plan spans.
func (p *ShardPoller) Mesh() *mesh.Mesh { return p.src.Plan().Mesh }
