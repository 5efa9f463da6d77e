package core

// Snapshot export hooks: the bridge between a running (or checkpointed)
// model and the serving plane (internal/serve). A committed checkpoint
// epoch doubles as an immutable state snapshot — LoadEpochState
// assembles every rank's shard back into one full-mesh state for the
// snapshot builder, and a serial model exports gristd-compatible epochs
// through a single-rank ShardStore, so the wire format between producer
// and server is exactly the recovery format.

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"gristgo/internal/dycore"
)

// ErrTornEpoch is wrapped by LoadEpochState when every shard of an epoch
// verifies but they were not taken at the same step: the commit raced a
// rewrite, which a retry after the writer finishes can heal.
var ErrTornEpoch = errors.New("core: torn epoch")

// Plan returns the distributed plan the store's shard layout was derived
// from (the serving side needs the mesh and rank count to reassemble).
func (st *ShardStore) Plan() *DistPlan { return st.pl }

// LoadEpochState assembles every rank's shard of a committed epoch into
// s, which must span the plan's full mesh. Shards are applied in rank
// order, so where a halo mirror and its owner's value differ the last
// rank's copy stands. It returns the step count the epoch was taken at
// and fails if any shard is missing, corrupt (the error wraps
// durable.ErrCorrupt), or disagrees on the step (ErrTornEpoch).
func (st *ShardStore) LoadEpochState(epoch int, s *dycore.State) (int, error) {
	return st.loadEpoch(epoch, s, false)
}

// LoadEpochSurface is LoadEpochState restoring only what a served
// snapshot reads: DryMass and W whole, the lowest layer of ThetaM and U.
// The rest of s is left as it was; every shard is verified in full.
func (st *ShardStore) LoadEpochSurface(epoch int, s *dycore.State) (int, error) {
	return st.loadEpoch(epoch, s, true)
}

// loadEpoch reads and verifies the epoch's shards into pooled buffers on
// up to GOMAXPROCS goroutines (ParallelFor would run so short a list
// inline) and checks and decodes them in rank order as they arrive, so
// the error and the halo mirrors that stand are a sequential walk's.
// Readers take shards in rank order, and at most one buffer per reader
// is out at a time: decoding a shard frees its buffer for the read of a
// later one. Every shard is read, even after one fails.
func (st *ShardStore) loadEpoch(epoch int, s *dycore.State, surface bool) (int, error) {
	type shard struct {
		buf    *[]byte
		step   int
		region []byte
		err    error
		read   chan struct{}
	}
	shards := make([]shard, st.pl.NParts)
	for p := range shards {
		shards[p].read = make(chan struct{})
	}
	workers := min(len(shards), runtime.GOMAXPROCS(0))
	out := make(chan struct{}, workers) // one token per buffer out
	var next atomic.Int64
	for range workers {
		go func() {
			for {
				out <- struct{}{}
				p := int(next.Add(1) - 1)
				if p >= len(shards) {
					<-out
					return
				}
				sh := &shards[p]
				sh.buf = st.bufs.Get().(*[]byte)
				sh.step, sh.region, sh.err = st.loadShard(epoch, p, sh.buf)
				close(sh.read)
			}
		}()
	}

	step := -1
	var err error
	for p := range shards {
		sh := &shards[p]
		<-sh.read
		switch {
		case err != nil:
		case sh.err != nil:
			err = fmt.Errorf("core: assembling epoch %d: %w", epoch, sh.err)
		default:
			st.decodeShard(p, sh.region, s, surface)
			if step >= 0 && sh.step != step {
				err = fmt.Errorf("%w: epoch %d has rank %d at step %d, rank 0 at step %d", ErrTornEpoch, epoch, p, sh.step, step)
			}
			step = sh.step
		}
		st.bufs.Put(sh.buf)
		<-out
	}
	if err != nil {
		return 0, err
	}
	return step, nil
}

// NewSnapshotStore creates a single-rank ShardStore over the model's
// mesh: the snapshot-export target of a serial run. Epochs written
// through ExportSnapshot are readable by any ShardStore built with the
// same mesh, layer count and nparts=1 (what `gristd -parts 1` builds).
func (mod *Model) NewSnapshotStore(dir string) (*ShardStore, error) {
	pl := NewDistPlan(mod.Mesh, mod.Cfg.NLev, 1, defaultSeed)
	return NewShardStore(dir, pl)
}

// ExportSnapshot writes the model's current dynamics state as the given
// committed epoch of a single-rank store: one shard, then the manifest.
// The store must come from NewSnapshotStore (or an equivalent 1-part
// plan over the same mesh).
func (mod *Model) ExportSnapshot(st *ShardStore, epoch int) error {
	if st.pl.NParts != 1 {
		return fmt.Errorf("core: ExportSnapshot needs a single-rank store, got %d parts", st.pl.NParts)
	}
	if err := st.WriteShard(epoch, 0, mod.stepCount, mod.Engine.State()); err != nil {
		return err
	}
	return st.Commit(epoch, mod.stepCount)
}
