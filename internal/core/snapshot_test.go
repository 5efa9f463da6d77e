package core

import (
	"errors"
	iofs "io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"gristgo/internal/durable"
	"gristgo/internal/dycore"
	"gristgo/internal/physics"
	"gristgo/internal/vfs"
)

// corruptFile flips one payload byte of the named file.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// LatestCommitted verifies what it offers on every call: a shard
// corrupted AFTER a first successful call must cost the epoch its place,
// because the caller is about to ReadShard whatever it is handed — an
// answer remembered from before the corruption would send recovery to an
// epoch ReadShard refuses.
func TestLatestCommittedReverifiesEveryCall(t *testing.T) {
	m := sharedMesh3
	nlev, nparts := 3, 3
	pl := NewDistPlan(m, nlev, nparts, 12345)
	dir := t.TempDir()
	st, err := NewShardStore(dir, pl)
	if err != nil {
		t.Fatal(err)
	}
	src := dycore.NewState(m, nlev)
	resilientInit(src)
	for _, e := range []struct{ epoch, step int }{{1, 5}, {2, 10}} {
		for p := 0; p < nparts; p++ {
			if err := st.WriteShard(e.epoch, p, e.step, src); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Commit(e.epoch, e.step); err != nil {
			t.Fatal(err)
		}
	}
	if epoch, step, ok := st.LatestCommitted(); !ok || epoch != 2 || step != 10 {
		t.Fatalf("LatestCommitted = (%d, %d, %v), want (2, 10, true)", epoch, step, ok)
	}

	corruptFile(t, filepath.Join(dir, "shard-e000002-r0001.grist"))
	epoch, step, ok := st.LatestCommitted()
	if !ok || epoch != 1 || step != 5 {
		t.Fatalf("after on-disk corruption LatestCommitted = (%d, %d, %v), want the older epoch (1, 5, true)", epoch, step, ok)
	}
	if _, err := st.ReadShard(epoch, 1, dycore.NewState(m, nlev)); err != nil {
		t.Fatalf("the epoch LatestCommitted offered does not load: %v", err)
	}

	// Repairing the shard (a rollback rewrites epochs) restores the epoch.
	if err := st.WriteShard(2, 1, 10, src); err != nil {
		t.Fatal(err)
	}
	if epoch, step, ok := st.LatestCommitted(); !ok || epoch != 2 || step != 10 {
		t.Fatalf("after repair LatestCommitted = (%d, %d, %v), want (2, 10, true)", epoch, step, ok)
	}
}

// LoadEpochState must reassemble every rank's shard into a full-mesh
// state bitwise equal to the source on every prognostic array.
func TestLoadEpochStateAssemblesFullState(t *testing.T) {
	m := sharedMesh3
	nlev, nparts := 3, 4
	pl := NewDistPlan(m, nlev, nparts, 12345)
	st, err := NewShardStore(t.TempDir(), pl)
	if err != nil {
		t.Fatal(err)
	}
	src := dycore.NewState(m, nlev)
	resilientInit(src)
	for p := 0; p < nparts; p++ {
		if err := st.WriteShard(1, p, 7, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(1, 7); err != nil {
		t.Fatal(err)
	}

	dst := dycore.NewState(m, nlev)
	step, err := st.LoadEpochState(1, dst)
	if err != nil {
		t.Fatal(err)
	}
	if step != 7 {
		t.Fatalf("assembled step %d, want 7", step)
	}
	arrays := []struct {
		name     string
		got, src []float64
	}{
		{"DryMass", dst.DryMass, src.DryMass},
		{"ThetaM", dst.ThetaM, src.ThetaM},
		{"U", dst.U, src.U},
		{"W", dst.W, src.W},
		{"Phi", dst.Phi, src.Phi},
	}
	for _, a := range arrays {
		for i := range a.src {
			if a.got[i] != a.src[i] {
				t.Fatalf("%s[%d] = %v, want %v", a.name, i, a.got[i], a.src[i])
			}
		}
	}

	// A missing epoch must fail, not half-assemble.
	if _, err := st.LoadEpochState(9, dycore.NewState(m, nlev)); err == nil {
		t.Fatal("LoadEpochState accepted a missing epoch")
	}
}

// A serial model's snapshot export must produce a gristd-readable
// single-rank epoch: committed, assemblable, bitwise-equal state.
func TestExportSnapshotRoundTrip(t *testing.T) {
	mod := NewModelOnMesh(Config{GridLevel: 3, NLev: 4}, physics.Null{}, sharedMesh3)
	s := mod.Engine.State()
	resilientInit(s)

	dir := t.TempDir()
	st, err := mod.NewSnapshotStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := mod.ExportSnapshot(st, 1); err != nil {
		t.Fatal(err)
	}

	// A consumer-side store over the same mesh reads it back.
	pl := NewDistPlan(mod.Mesh, 4, 1, 12345)
	rd, err := NewShardStore(dir, pl)
	if err != nil {
		t.Fatal(err)
	}
	epoch, _, ok := rd.LatestCommitted()
	if !ok || epoch != 1 {
		t.Fatalf("LatestCommitted = (%d, _, %v), want (1, true)", epoch, ok)
	}
	dst := dycore.NewState(mod.Mesh, 4)
	if _, err := rd.LoadEpochState(1, dst); err != nil {
		t.Fatal(err)
	}
	for i := range s.DryMass {
		if dst.DryMass[i] != s.DryMass[i] {
			t.Fatalf("DryMass[%d] differs after export round-trip", i)
		}
	}
	for i := range s.U {
		if dst.U[i] != s.U[i] {
			t.Fatalf("U[%d] differs after export round-trip", i)
		}
	}

	// A multi-rank store must refuse the export entry point.
	multi, err := NewShardStore(t.TempDir(), NewDistPlan(mod.Mesh, 4, 2, 12345))
	if err != nil {
		t.Fatal(err)
	}
	if err := mod.ExportSnapshot(multi, 1); err == nil {
		t.Fatal("ExportSnapshot accepted a multi-rank store")
	}
}

// eioFS is vfs.OS failing every read of one file with EIO.
type eioFS struct {
	vfs.FS
	name string
}

func (f eioFS) ReadFile(name string, buf []byte) ([]byte, error) {
	if filepath.Base(name) == f.name {
		return nil, &iofs.PathError{Op: "read", Path: name, Err: syscall.EIO}
	}
	return f.FS.ReadFile(name, buf)
}

// writeTestEpoch commits epoch 1 at step 7 over a 4-rank plan, with
// rank r's shard taken at steps[r] when given, and returns the store
// over fsys.
func writeTestEpoch(t *testing.T, fsys vfs.FS, steps map[int]int) (*ShardStore, string) {
	t.Helper()
	pl := NewDistPlan(sharedMesh3, 3, 4, 12345)
	dir := t.TempDir()
	st, err := NewShardStoreFS(dir, pl, fsys)
	if err != nil {
		t.Fatal(err)
	}
	src := dycore.NewState(sharedMesh3, 3)
	resilientInit(src)
	for p := 0; p < 4; p++ {
		step, ok := steps[p]
		if !ok {
			step = 7
		}
		if err := st.WriteShard(1, p, step, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(1, 7); err != nil {
		t.Fatal(err)
	}
	return st, dir
}

// A shard read into a pooled buffer that last held a longer copy of
// itself must see only its own bytes: truncated, it fails as corrupt
// (a stale tail would complete the old record and pass), and loads again
// once rewritten.
func TestPooledReadOfTruncatedShardFails(t *testing.T) {
	st, dir := writeTestEpoch(t, vfs.OS, nil)
	s := dycore.NewState(sharedMesh3, 3)
	if _, err := st.LoadEpochState(1, s); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "shard-e000001-r0002.grist")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int64{fi.Size() - 1, fi.Size() / 2, 3} {
		if err := os.Truncate(path, keep); err != nil {
			t.Fatal(err)
		}
		for _, load := range []func(int, *dycore.State) (int, error){st.LoadEpochState, st.LoadEpochSurface, func(e int, s *dycore.State) (int, error) { return st.ReadShard(e, 2, s) }} {
			_, err := load(1, s)
			if !errors.Is(err, durable.ErrCorrupt) || !strings.Contains(err.Error(), "r0002") {
				t.Fatalf("shard cut to %d of %d bytes: load returned %v, want rank 2's ErrCorrupt", keep, fi.Size(), err)
			}
		}
		if _, _, ok := st.LatestCommitted(); ok {
			t.Fatalf("shard cut to %d bytes: LatestCommitted still offers the epoch", keep)
		}
	}
	src := dycore.NewState(sharedMesh3, 3)
	resilientInit(src)
	if err := st.WriteShard(1, 2, 7, src); err != nil {
		t.Fatal(err)
	}
	if step, err := st.LoadEpochState(1, s); err != nil || step != 7 {
		t.Fatalf("after the rewrite LoadEpochState = (%d, %v), want (7, nil)", step, err)
	}
}

// Shards are read in parallel but judged in rank order: the error a
// load reports is the one a sequential walk would stop at, however the
// later ranks fail.
func TestParallelLoadReportsFirstFailingRank(t *testing.T) {
	unreadable := eioFS{FS: vfs.OS, name: "shard-e000001-r0003.grist"}

	st, dir := writeTestEpoch(t, unreadable, nil)
	corruptFile(t, filepath.Join(dir, "shard-e000001-r0001.grist"))
	for _, load := range []func(int, *dycore.State) (int, error){st.LoadEpochState, st.LoadEpochSurface} {
		_, err := load(1, dycore.NewState(sharedMesh3, 3))
		if !errors.Is(err, durable.ErrCorrupt) || errors.Is(err, syscall.EIO) || !strings.Contains(err.Error(), "r0001") {
			t.Errorf("rank 1 corrupt, rank 3 unreadable: load returned %v, want rank 1's ErrCorrupt", err)
		}
	}

	st, _ = writeTestEpoch(t, unreadable, map[int]int{2: 9})
	for _, load := range []func(int, *dycore.State) (int, error){st.LoadEpochState, st.LoadEpochSurface} {
		_, err := load(1, dycore.NewState(sharedMesh3, 3))
		if !errors.Is(err, ErrTornEpoch) || errors.Is(err, syscall.EIO) {
			t.Errorf("rank 2 at another step, rank 3 unreadable: load returned %v, want ErrTornEpoch", err)
		}
	}

	st, _ = writeTestEpoch(t, unreadable, nil)
	if _, err := st.LoadEpochState(1, dycore.NewState(sharedMesh3, 3)); !errors.Is(err, syscall.EIO) {
		t.Errorf("only rank 3 unreadable: load returned %v, want EIO", err)
	}
}
