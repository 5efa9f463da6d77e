package core

import (
	"os"
	"path/filepath"
	"testing"

	"gristgo/internal/dycore"
	"gristgo/internal/physics"
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
