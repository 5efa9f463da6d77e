package core

import (
	"bytes"
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"strings"
	"syscall"
	"testing"

	"gristgo/internal/durable"
	"gristgo/internal/dycore"
	"gristgo/internal/partition"
	"gristgo/internal/physics"
	"gristgo/internal/synthclim"
	"gristgo/internal/vfs"
)

// The crash-consistency sweep, in the style of Pillai et al. (OSDI 2014):
// every durable write path runs once on a filesystem that numbers its
// operations, then once per operation with that operation failed — EIO,
// ENOSPC and, for a Write, a torn prefix followed by ENOSPC. A failed run
// must return the injected errno, leave what was committed before
// readable, and leave no temp file behind. Every run, failed or not, must
// also publish only synced bytes.

// sweepFS is vfs.OS with every operation numbered; it fails the failAt-th
// (1-based, 0: none) with errno, and checks the commit order on Rename.
type sweepFS struct {
	t      *testing.T
	ops    []string // the kind of every operation so far
	failAt int
	errno  syscall.Errno
	torn   bool // fail a Write by landing half of it first

	failedOp, failedPath string

	// synced holds the files whose bytes were synced and not written since.
	synced map[string]bool
}

func newSweepFS(t *testing.T, failAt int, errno syscall.Errno, torn bool) *sweepFS {
	return &sweepFS{t: t, failAt: failAt, errno: errno, torn: torn, synced: map[string]bool{}}
}

// op numbers one operation and returns the injected error if it is the
// one to fail.
func (f *sweepFS) op(kind, path string) error {
	f.ops = append(f.ops, kind)
	if len(f.ops) != f.failAt {
		return nil
	}
	f.failedOp, f.failedPath = kind, path
	return &iofs.PathError{Op: kind, Path: path, Err: f.errno}
}

func (f *sweepFS) file(inner vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	f.synced[inner.Name()] = false
	return &sweepFile{File: inner, fs: f}, nil
}

func (f *sweepFS) Create(name string) (vfs.File, error) {
	if err := f.op("Create", name); err != nil {
		return nil, err
	}
	return f.file(vfs.OS.Create(name))
}

func (f *sweepFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	if err := f.op("CreateTemp", dir); err != nil {
		return nil, err
	}
	return f.file(vfs.OS.CreateTemp(dir, pattern))
}

func (f *sweepFS) ReadFile(name string) ([]byte, error) {
	if err := f.op("ReadFile", name); err != nil {
		return nil, err
	}
	return vfs.OS.ReadFile(name)
}

func (f *sweepFS) Rename(oldpath, newpath string) error {
	if !f.synced[oldpath] {
		f.t.Errorf("Rename publishes %s as %s, but it was never synced or was written after its last Sync", oldpath, newpath)
	}
	if err := f.op("Rename", oldpath); err != nil {
		return err
	}
	return vfs.OS.Rename(oldpath, newpath)
}

func (f *sweepFS) Remove(name string) error {
	if err := f.op("Remove", name); err != nil {
		return err
	}
	return vfs.OS.Remove(name)
}

func (f *sweepFS) MkdirAll(path string, perm iofs.FileMode) error {
	if err := f.op("MkdirAll", path); err != nil {
		return err
	}
	return vfs.OS.MkdirAll(path, perm)
}

func (f *sweepFS) Glob(pattern string) ([]string, error) {
	if err := f.op("Glob", pattern); err != nil {
		return nil, err
	}
	return vfs.OS.Glob(pattern)
}

type sweepFile struct {
	vfs.File
	fs *sweepFS
}

func (w *sweepFile) Write(b []byte) (int, error) {
	w.fs.synced[w.Name()] = false
	if err := w.fs.op("Write", w.Name()); err != nil {
		if !w.fs.torn {
			return 0, err
		}
		n, werr := w.File.Write(b[:len(b)/2])
		return n, errors.Join(err, werr)
	}
	return w.File.Write(b)
}

func (w *sweepFile) Sync() error {
	if err := w.fs.op("Sync", w.Name()); err != nil {
		return err
	}
	if err := w.File.Sync(); err != nil {
		return err
	}
	w.fs.synced[w.Name()] = true
	return nil
}

// Close releases the descriptor even when it reports the injected error,
// as close(2) does.
func (w *sweepFile) Close() error {
	injected := w.fs.op("Close", w.Name())
	if err := w.File.Close(); err != nil {
		return err
	}
	return injected
}

// sweepRoot is one durable write path: setup commits the state before it
// on the real filesystem, run is the path itself on fsys, and check
// asserts what dir holds afterwards — the new state when nothing failed,
// what setup committed when something did.
type sweepRoot struct {
	name  string
	setup func(t *testing.T, dir string)
	run   func(fsys vfs.FS, dir string) error
	check func(t *testing.T, dir string, failed bool)
}

func TestFailEveryOperation(t *testing.T) {
	for _, root := range sweepRoots(t) {
		t.Run(root.name, func(t *testing.T) {
			clean := newSweepFS(t, 0, 0, false)
			dir := t.TempDir()
			root.setup(t, dir)
			if err := root.run(clean, dir); err != nil {
				t.Fatalf("unfailed run: %v", err)
			}
			root.check(t, dir, false)
			t.Logf("%d operations: %s", len(clean.ops), strings.Join(clean.ops, " "))

			for k, kind := range clean.ops {
				for _, c := range []struct {
					errno syscall.Errno
					torn  bool
				}{{syscall.EIO, false}, {syscall.ENOSPC, false}, {syscall.ENOSPC, true}} {
					if c.torn && kind != "Write" {
						continue
					}
					fsys := newSweepFS(t, k+1, c.errno, c.torn)
					label := fmt.Sprintf("operation %d (%s) failed with %v", k+1, kind, c.errno)
					if c.torn {
						label += " after a torn write"
					}
					dir := t.TempDir()
					root.setup(t, dir)
					err := root.run(fsys, dir)
					if fsys.failedOp != kind {
						t.Fatalf("%s: operation %d was %q on this run", label, k+1, fsys.failedOp)
					}
					if !errors.Is(err, c.errno) && !(kind == "Remove" && err == nil) {
						t.Errorf("%s: the path returned %v", label, err)
					}
					root.check(t, dir, true)
					noTempLeft(t, dir, label, fsys)
				}
			}
		})
	}
}

// noTempLeft fails when a temp file survives in dir, unless the failed
// operation was that file's own Remove.
func noTempLeft(t *testing.T, dir, label string, fsys *sweepFS) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.Contains(e.Name(), ".tmp-") {
			continue
		}
		if fsys.failedOp == "Remove" && strings.HasSuffix(fsys.failedPath, "/"+e.Name()) {
			continue
		}
		t.Errorf("%s: temp file %s left behind", label, e.Name())
	}
}

func sweepRoots(t *testing.T) []sweepRoot {
	m := sharedMesh3
	const nlev = 3
	before := dycore.NewState(m, nlev)
	resilientInit(before)
	after := before.Clone()
	for i := range after.U {
		after.U[i] += 1
	}
	pl2 := NewDistPlan(m, nlev, 2, 12345)
	pl3 := NewDistPlan(m, nlev, 3, 12345)
	d, err := partition.DecomposeWeighted(m, 2, partition.EpochSeed(12345, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Epoch = 1
	plB := NewDistPlanFromDecomp(m, nlev, d)

	writeEpoch := func(st *ShardStore, epoch, step int, s *dycore.State) error {
		for p := 0; p < st.pl.NParts; p++ {
			if err := st.WriteShard(epoch, p, step, s); err != nil {
				return err
			}
		}
		return st.Commit(epoch, step)
	}
	commit := func(t *testing.T, dir string, pl *DistPlan) {
		st, err := NewShardStore(dir, pl)
		if err == nil {
			err = writeEpoch(st, 1, 5, before)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// resumes asserts what LatestCommitted offers under pl — epoch want,
	// or (want -1) any epoch or none — and that its shards read back as s
	// bit for bit.
	resumes := func(t *testing.T, dir string, pl *DistPlan, want int, s *dycore.State) {
		t.Helper()
		st, err := NewShardStore(dir, pl)
		if err != nil {
			t.Fatal(err)
		}
		epoch, _, ok := st.LatestCommitted()
		if !ok {
			if want > 0 {
				t.Errorf("no epoch resumes under the %d-rank plan, want epoch %d", pl.NParts, want)
			}
			return
		}
		if want >= 0 && epoch != want {
			t.Errorf("epoch %d resumes under the %d-rank plan, want %d", epoch, pl.NParts, want)
			return
		}
		got := dycore.NewState(m, nlev)
		for p := 0; p < pl.NParts; p++ {
			if _, err := st.ReadShard(epoch, p, got); err != nil {
				t.Errorf("LatestCommitted offered epoch %d, but rank %d's shard fails: %v", epoch, p, err)
				return
			}
		}
		assertBitwise(t, got, s, "resumed epoch")
	}

	mod := NewModelOnMesh(Config{GridLevel: 3, NLev: 6}, physics.Null{}, m)
	mod.InitializeClimate(synthclim.ForPeriod(synthclim.Table1()[0], 0))
	// records returns the restart and history records of mod's state.
	records := func() (restart, history []byte) {
		var r, h bytes.Buffer
		err := errors.Join(mod.WriteRestart(&r), durable.Encode(&h, durable.History, mod.WriteHistory))
		if err != nil {
			t.Fatal(err)
		}
		return r.Bytes(), h.Bytes()
	}
	oldRestart, oldHistory := records()
	mod.TimeSec = 3600
	mod.In.Tskin[0] += 1
	newRestart, newHistory := records()
	// file is a root that replaces one whole file of kind k.
	file := func(name string, k durable.Kind, old, next []byte, run func(fsys vfs.FS, path string) error) sweepRoot {
		const base = "/f.grist"
		return sweepRoot{
			name: name,
			setup: func(t *testing.T, dir string) {
				if err := os.WriteFile(dir+base, old, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			run: func(fsys vfs.FS, dir string) error { return run(fsys, dir+base) },
			check: func(t *testing.T, dir string, failed bool) {
				t.Helper()
				want := next
				if failed {
					want = old
				}
				decodesTo(t, dir+base, k, want)
			},
		}
	}

	return []sweepRoot{
		{
			name:  "WriteShard+Commit",
			setup: func(t *testing.T, dir string) { commit(t, dir, pl2) },
			run: func(fsys vfs.FS, dir string) error {
				st, err := NewShardStoreFS(dir, pl2, fsys)
				if err != nil {
					return err
				}
				return writeEpoch(st, 2, 10, after)
			},
			check: func(t *testing.T, dir string, failed bool) {
				if failed {
					resumes(t, dir, pl2, 1, before)
				} else {
					resumes(t, dir, pl2, 2, after)
				}
			},
		},
		{
			// A 3 -> 2 shrink, so the prune of the retired rank's shard
			// runs. Redistribute rewrites the epoch's shards in place, so
			// a failure after the first new shard lands leaves the epoch
			// loadable under neither plan: all it can promise is that
			// nothing is offered that does not read.
			name:  "Redistribute",
			setup: func(t *testing.T, dir string) { commit(t, dir, pl3) },
			run: func(fsys vfs.FS, dir string) error {
				st, err := NewShardStoreFS(dir, pl3, fsys)
				if err != nil {
					return err
				}
				return st.Redistribute(1, 5, plB)
			},
			check: func(t *testing.T, dir string, failed bool) {
				if !failed {
					resumes(t, dir, plB, 1, before)
					return
				}
				resumes(t, dir, pl3, -1, before)
				resumes(t, dir, plB, -1, before)
			},
		},
		file("Replace+WriteRestart", durable.Restart, oldRestart, newRestart, func(fsys vfs.FS, path string) error {
			return durable.Replace(fsys, path, mod.WriteRestart)
		}),
		file("WriteFile+WriteHistory", durable.History, oldHistory, newHistory, func(fsys vfs.FS, path string) error {
			return durable.WriteFile(fsys, path, durable.History, mod.WriteHistory)
		}),
	}
}

// decodesTo asserts path holds a record of kind k whose payload is want's.
func decodesTo(t *testing.T, path string, k durable.Kind, want []byte) {
	t.Helper()
	got, err := durable.ReadFile(vfs.OS, path, k)
	if err != nil {
		t.Errorf("%v", err)
		return
	}
	if wantPayload, _ := durable.Decode(want, k); !bytes.Equal(got, wantPayload) {
		t.Errorf("%s holds a %s record other than the one committed", path, k)
	}
}
