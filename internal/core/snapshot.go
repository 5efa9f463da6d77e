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
// s, which must span the plan's full mesh. Owned regions overlap halo
// mirrors with identical values, so assembly order does not matter. It
// returns the step count the epoch was taken at and fails if any shard
// is missing, corrupt (the error wraps durable.ErrCorrupt), or disagrees
// on the step (ErrTornEpoch).
func (st *ShardStore) LoadEpochState(epoch int, s *dycore.State) (int, error) {
	step := -1
	for p := 0; p < st.pl.NParts; p++ {
		sp, err := st.ReadShard(epoch, p, s)
		if err != nil {
			return 0, fmt.Errorf("core: assembling epoch %d: %w", epoch, err)
		}
		if step >= 0 && sp != step {
			return 0, fmt.Errorf("%w: epoch %d has rank %d at step %d, rank 0 at step %d", ErrTornEpoch, epoch, p, sp, step)
		}
		step = sp
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
