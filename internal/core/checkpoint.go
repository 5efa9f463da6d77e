package core

// Distributed sharded checkpointing. Every rank of a resilient run
// periodically serializes its region of the dynamics state into a
// per-rank shard file — one internal/durable record (versioned header,
// CRC32 trailer, atomic replace) holding the raw FP64 region — and the
// ranks rendezvous on a checkpoint epoch: only after every shard of an
// epoch is durable does rank 0 commit the epoch manifest. Recovery scans
// manifests newest-first and resumes from the first epoch whose shards
// all verify, so a crash while an epoch is written (mid-shard, mid-epoch,
// mid-manifest) leaves either the previous committed epoch or a complete
// new one, never a torn mixture. Redistribute is the exception: it
// rewrites a committed epoch's shards in place, under the same names, so
// a failure after its first new shard lands leaves that epoch loadable
// under neither plan. Recovery then falls back to an older epoch or the
// initial state: still correct, but the epoch's progress is lost.
//
// A shard stores the rank's owned cells AND halo mirrors (DiagCells),
// plus its owned and ghost edges: the dycore step reads halo values
// before its first exchange of a step, so resuming bitwise requires the
// mirrors exactly as they were, not just the owned region.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"

	"gristgo/internal/durable"
	"gristgo/internal/dycore"
	"gristgo/internal/vfs"
)

// ShardStore reads and writes the checkpoint shards of one distributed
// plan under a directory. Methods are safe for concurrent use by
// different ranks (each rank touches only its own shard files).
type ShardStore struct {
	dir string
	pl  *DistPlan
	fs  vfs.FS

	// shardEdges[p]: the U columns rank p's kernels read — owned edges
	// plus ghost (received) edges — sorted for a stable file layout.
	shardEdges [][]int32
}

// NewShardStore creates (if needed) the checkpoint directory and
// precomputes each rank's shard layout from the plan.
func NewShardStore(dir string, pl *DistPlan) (*ShardStore, error) {
	return NewShardStoreFS(dir, pl, vfs.OS)
}

// NewShardStoreFS is NewShardStore over an injectable filesystem —
// the seam the storage-chaos layer decorates. Every read and write
// the store performs goes through fsys.
func NewShardStoreFS(dir string, pl *DistPlan, fsys vfs.FS) (*ShardStore, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating checkpoint dir: %w", err)
	}
	return &ShardStore{dir: dir, pl: pl, fs: fsys, shardEdges: shardEdgeLists(pl)}, nil
}

// shardEdgeLists computes each rank's shard edge layout under a plan:
// owned plus ghost (received) edges, sorted for a stable file order.
func shardEdgeLists(pl *DistPlan) [][]int32 {
	lists := make([][]int32, pl.NParts)
	for p := 0; p < pl.NParts; p++ {
		edges := append([]int32(nil), pl.UEdges[p]...)
		for _, ghost := range pl.edgeRecv[p] {
			edges = append(edges, ghost...)
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
		lists[p] = edges
	}
	return lists
}

// SetPlan rebinds the store to a new distributed plan (an elastic
// repartition) and recomputes the shard layouts. Call between legs only
// — never while ranks are writing shards.
func (st *ShardStore) SetPlan(pl *DistPlan) {
	st.pl = pl
	st.shardEdges = shardEdgeLists(pl)
}

// planGen returns the decomposition epoch the store's plan derives from
// (0 for static plans) — the generation stamp of committed manifests.
func (st *ShardStore) planGen() int {
	if st.pl.Decomp != nil {
		return st.pl.Decomp.Epoch
	}
	return 0
}

// Dir returns the checkpoint directory.
func (st *ShardStore) Dir() string { return st.dir }

func (st *ShardStore) shardPath(epoch, rank int) string {
	return filepath.Join(st.dir, fmt.Sprintf("shard-e%06d-r%04d.grist", epoch, rank))
}

func (st *ShardStore) manifestPath(epoch int) string {
	return filepath.Join(st.dir, fmt.Sprintf("epoch-%06d.json", epoch))
}

// shardMetaLen is the fixed-size preamble of a shard record's payload:
// rank | epoch | step | ncells | nedges, little-endian uint32 each. The
// region follows as raw FP64 bits in dycore.State.Region order over the
// rank's DiagCells and shard edges, bitwise-exact.
const shardMetaLen = 5 * 4

// WriteShard atomically writes rank's region of the state after `step`
// completed steps as epoch's shard.
//
//grist:bitwise
func (st *ShardStore) WriteShard(epoch, rank, step int, s *dycore.State) error {
	cells, edges := st.pl.DiagCells[rank], st.shardEdges[rank]
	return durable.WriteFile(st.fs, st.shardPath(epoch, rank), durable.Shard, func(w io.Writer) error {
		// Runs are batched so the container hashes and buffers a few KiB
		// per call instead of one 20-word run.
		buf := make([]byte, shardMetaLen, 1<<15)
		for i, v := range []int{rank, epoch, step, len(cells), len(edges)} {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
		}
		var err error
		s.Region(cells, edges, func(run []float64) {
			if err != nil {
				return
			}
			if len(buf)+8*len(run) > cap(buf) {
				_, err = w.Write(buf)
				buf = buf[:0]
			}
			for _, v := range run {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		})
		if err != nil {
			return err
		}
		_, err = w.Write(buf)
		return err
	})
}

// loadShard reads and fully verifies one shard file — the container's
// checks, then that the shard is the one the plan expects — returning the
// step it was taken at and the region bytes.
func (st *ShardStore) loadShard(epoch, rank int) (step int, region []byte, err error) {
	path := st.shardPath(epoch, rank)
	payload, err := durable.ReadFile(st.fs, path, durable.Shard)
	if err != nil {
		return 0, nil, err
	}
	if len(payload) < shardMetaLen {
		return 0, nil, fmt.Errorf("core: shard %s has no header: %w", filepath.Base(path), durable.ErrCorrupt)
	}
	meta := func(i int) int { return int(binary.LittleEndian.Uint32(payload[4*i:])) }
	ncells, nedges := len(st.pl.DiagCells[rank]), len(st.shardEdges[rank])
	if meta(0) != rank || meta(1) != epoch || meta(3) != ncells || meta(4) != nedges {
		return 0, nil, fmt.Errorf("core: shard %s does not match the plan (rank %d epoch %d, %d cells, %d edges): %w",
			filepath.Base(path), meta(0), meta(1), meta(3), meta(4), durable.ErrCorrupt)
	}
	region = payload[shardMetaLen:]
	if want := 8 * dycore.RegionLen(st.pl.NLev, ncells, nedges); len(region) != want {
		return 0, nil, fmt.Errorf("core: shard %s payload is %d bytes, want %d: %w", filepath.Base(path), len(region), want, durable.ErrCorrupt)
	}
	return meta(2), region, nil
}

// ReadShard restores rank's region of epoch's shard into s and returns
// the step count the shard was taken at.
func (st *ShardStore) ReadShard(epoch, rank int, s *dycore.State) (int, error) {
	step, region, err := st.loadShard(epoch, rank)
	if err != nil {
		return 0, err
	}
	s.Region(st.pl.DiagCells[rank], st.shardEdges[rank], func(run []float64) {
		for k := range run {
			run[k] = math.Float64frombits(binary.LittleEndian.Uint64(region[8*k:]))
		}
		region = region[8*len(run):]
	})
	return step, nil
}

// epochManifest is the commit record of a checkpoint epoch, written by
// rank 0 only after every rank's shard is durable. Gen is the
// decomposition epoch the shards were laid out under (absent/0 for
// static runs): recovery only accepts manifests from the current
// decomposition, so an elastic run that shrank and later grew back to an
// old part count cannot resurrect a pre-shrink epoch whose shard layout
// no longer matches.
type epochManifest struct {
	Epoch  int `json:"epoch"`
	Step   int `json:"step"`
	NParts int `json:"nparts"`
	Gen    int `json:"gen,omitempty"`
}

// Commit atomically writes epoch's manifest, marking it recoverable.
//
//grist:bitwise
func (st *ShardStore) Commit(epoch, step int) error {
	m := epochManifest{Epoch: epoch, Step: step, NParts: st.pl.NParts, Gen: st.planGen()}
	return durable.Replace(st.fs, st.manifestPath(epoch), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(&m)
	})
}

// Redistribute re-shards a committed epoch for a new plan: the old
// plan's shards are read back and assembled owner-truth (each entity
// taken from the rank that owned it, never from a halo mirror, so the
// assembly is bitwise-faithful in any precision mode), the store is
// rebound to newPl, every new rank's shard is written, shards of
// retired ranks are pruned, and the epoch is re-committed under the new
// generation. After it returns, LatestCommitted under the new plan
// resumes from exactly this epoch (after a failure, see the file comment).
//
//grist:bitwise
func (st *ShardStore) Redistribute(epoch, step int, newPl *DistPlan) error {
	old := st.pl
	s := dycore.NewState(old.Mesh, old.NLev)
	tmp := dycore.NewState(old.Mesh, old.NLev)
	for p := 0; p < old.NParts; p++ {
		if _, err := st.ReadShard(epoch, p, tmp); err != nil {
			return fmt.Errorf("core: redistributing epoch %d: %w", epoch, err)
		}
		unpackOwnedState(s, nil, old, p, packOwnedState(tmp, nil, old, p))
	}
	// Captured before SetPlan retires the old plan: only the part count
	// survives the generation change, for pruning below.
	oldParts := old.NParts
	st.SetPlan(newPl)
	for p := 0; p < newPl.NParts; p++ {
		if err := st.WriteShard(epoch, p, step, s); err != nil {
			return fmt.Errorf("core: redistributing epoch %d: %w", epoch, err)
		}
	}
	// A shrink leaves the retired ranks' shard files behind; drop them so
	// the directory holds exactly the live epoch layout.
	for p := newPl.NParts; p < oldParts; p++ {
		st.fs.Remove(st.shardPath(epoch, p))
	}
	return st.Commit(epoch, step)
}

// readManifest reads one manifest file; ok is false when it does not
// parse or was committed under another plan (part count and
// decomposition generation must both match).
func (st *ShardStore) readManifest(name string) (m epochManifest, ok bool, err error) {
	raw, err := st.fs.ReadFile(name)
	if err != nil {
		return m, false, err
	}
	ok = json.Unmarshal(raw, &m) == nil && m.NParts == st.pl.NParts && m.Gen == st.planGen()
	return m, ok, nil
}

// LatestCommitted returns the newest committed epoch whose every shard
// verifies (container, plan match, step), with the step it was taken at.
// ok is false when no usable epoch exists — recovery then replays from
// the initial state. Only manifests of the current plan count, so epochs
// sharded under a retired membership are never resumed. Every call
// verifies what it offers: it runs once per leg or reshape, and the
// caller is about to ReadShard the epoch it is handed.
func (st *ShardStore) LatestCommitted() (epoch, step int, ok bool) {
	names, err := st.fs.Glob(filepath.Join(st.dir, "epoch-*.json"))
	if err != nil {
		return 0, 0, false
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, name := range names {
		m, mine, err := st.readManifest(name)
		if err != nil || !mine {
			continue
		}
		usable := true
		for p := 0; p < m.NParts && usable; p++ {
			got, _, err := st.loadShard(m.Epoch, p)
			usable = err == nil && got == m.Step
		}
		if usable {
			return m.Epoch, m.Step, true
		}
	}
	return 0, 0, false
}

// EpochInfo identifies one committed checkpoint epoch: its number and
// the step count it was taken at.
type EpochInfo struct {
	Epoch int
	Step  int
}

// CommittedEpochs lists every manifest-committed epoch of the current
// plan, ascending, WITHOUT verifying shard contents. This is the serve
// poller's view of what the producer claims exists: a corrupt epoch
// still appears here (its manifest committed fine) so the poller can
// attempt it, fail verification, and quarantine it — whereas
// LatestCommitted silently skips non-verifying epochs and would hide
// the corruption entirely. The error return distinguishes "directory
// unreadable" (IO fault, worth backoff) from "no epochs yet" (empty
// slice, nil error).
func (st *ShardStore) CommittedEpochs() ([]EpochInfo, error) {
	names, err := st.fs.Glob(filepath.Join(st.dir, "epoch-*.json"))
	if err != nil {
		return nil, fmt.Errorf("core: listing epoch manifests: %w", err)
	}
	var out []EpochInfo
	for _, name := range names {
		m, ok, err := st.readManifest(name)
		if err != nil {
			return nil, fmt.Errorf("core: reading manifest %s: %w", filepath.Base(name), err)
		}
		if ok {
			out = append(out, EpochInfo{Epoch: m.Epoch, Step: m.Step})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out, nil
}
