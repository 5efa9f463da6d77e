package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gristgo/internal/core"
	"gristgo/internal/dycore"
	"gristgo/internal/mesh"
	"gristgo/internal/telemetry"
)

// BenchmarkEpochRoundTripG6L20 times one checkpoint epoch from producer
// to first answer at the size of the benchmark's ckpt_pipeline_g6l20_r4
// workload (G6 x 20, baroclinic wave, 4 parts): every rank's WriteShard,
// the Commit, the poller's Poll and the first Engine.Point at the new
// epoch, on the real filesystem under the test's temp directory. The
// files of the epoch two back are removed off the clock, so the
// directory holds what the workload's retention leaves. `make
// profile-ckpt` profiles it.
func BenchmarkEpochRoundTripG6L20(b *testing.B) {
	const nlev, nparts = 20, 4
	m := mesh.New(6).ReorderBFS()
	dir := b.TempDir()
	st, err := core.NewShardStore(dir, core.NewDistPlan(m, nlev, nparts, 12345))
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(m, Config{}, telemetry.NewRegistry())
	p := NewShardPoller(st, srv.Engine.Store())
	s := dycore.NewState(m, nlev)
	s.InitIdealized(dycore.CaseBaroclinicWave)

	epoch := func(e int) {
		for r := 0; r < nparts; r++ {
			if err := st.WriteShard(e, r, e, s); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Commit(e, e); err != nil {
			b.Fatal(err)
		}
		if n, err := p.Poll(); err != nil || n != 1 {
			b.Fatalf("poll after epoch %d = (%d, %v), want (1, nil)", e, n, err)
		}
		if res, _, qerr := srv.Engine.Point(e, "ps", 12.5, 77.25); qerr != nil || res.Epoch != e {
			b.Fatalf("first point at epoch %d: answered epoch %d, error %v", e, res.Epoch, qerr)
		}
	}
	epoch(0)
	b.ResetTimer()
	for i := range b.N {
		e := i + 1
		epoch(e)
		b.StopTimer()
		old, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-e%06d-r*.grist", e-2)))
		for _, f := range append(old, filepath.Join(dir, fmt.Sprintf("epoch-%06d.json", e-2))) {
			os.Remove(f)
		}
		b.StartTimer()
	}
}

// BenchmarkDaemonStartG6 times what gristd does between exec and its
// first answer at the serve workloads' size (G6 x 20, 4 parts, 8
// committed epochs), in gristd's order: the BFS-ordered mesh, then the
// server (and its tiler) on a goroutine while the plan is built and the
// first Poll backfills every epoch into the server's store. The epochs
// are written once, off the clock, under the test's temp directory.
// `make profile-start` profiles it.
func BenchmarkDaemonStartG6(b *testing.B) {
	const nlev, nparts, epochs = 20, 4, 8
	dir := b.TempDir()
	{
		m := mesh.New(6).ReorderBFS()
		st, err := core.NewShardStore(dir, core.NewDistPlan(m, nlev, nparts, 12345))
		if err != nil {
			b.Fatal(err)
		}
		s := dycore.NewState(m, nlev)
		s.InitIdealized(dycore.CaseBaroclinicWave)
		for e := range epochs {
			for r := range nparts {
				if err := st.WriteShard(e, r, e, s); err != nil {
					b.Fatal(err)
				}
			}
			if err := st.Commit(e, e); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for range b.N {
		m := mesh.New(6).ReorderBFS()
		store := NewSnapshotStore(8)
		built := make(chan *Server, 1)
		go func() { built <- NewServerOn(m, Config{}, store, telemetry.NewRegistry()) }()
		st, err := core.NewShardStore(dir, core.NewDistPlan(m, nlev, nparts, 12345))
		if err != nil {
			b.Fatal(err)
		}
		if n, err := NewShardPoller(st, store).Poll(); err != nil || n != epochs {
			b.Fatalf("first poll = (%d, %v), want (%d, nil)", n, err, epochs)
		}
		<-built
	}
}
