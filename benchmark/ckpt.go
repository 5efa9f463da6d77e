package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gristgo/internal/core"
	"gristgo/internal/dycore"
	"gristgo/internal/mesh"
	"gristgo/internal/serve"
	"gristgo/internal/telemetry"
)

// epochFiles lists the files one committed epoch leaves in dir: one
// shard per rank and the manifest (core/checkpoint.go's naming).
func epochFiles(dir string, epoch int) []string {
	names, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-e%06d-r*.grist", epoch)))
	return append(names, filepath.Join(dir, fmt.Sprintf("epoch-%06d.json", epoch)))
}

// writeEpoch is the producer side of one epoch: every rank's shard, then
// the manifest. Spans go under parent when rec is on.
func writeEpoch(st *core.ShardStore, epoch int, s *dycore.State, rec *recorder, parent int) error {
	for r := 0; r < st.Plan().NParts; r++ {
		id := rec.begin("core.write_shard", parent, 0)
		err := st.WriteShard(epoch, r, epoch, s)
		rec.end(id)
		if err != nil {
			return err
		}
	}
	id := rec.begin("core.commit", parent, 0)
	err := st.Commit(epoch, epoch)
	rec.end(id)
	return err
}

// writeDataDir produces the committed epochs the serve workloads read —
// the same WriteShard/Commit calls the checkpoint workload times — and
// returns, per epoch, the snapshot the daemon must derive from them.
func writeDataDir(dir string, pl *core.DistPlan, s *dycore.State, epochs int, seed int64) ([]*serve.Snapshot, error) {
	st, err := core.NewShardStore(dir, pl)
	if err != nil {
		return nil, err
	}
	rng := stream(seed, streamPerturb)
	snaps := make([]*serve.Snapshot, epochs)
	for e := range snaps {
		perturbState(s, rng)
		if err := writeEpoch(st, e, s, nil, noSpan); err != nil {
			return nil, err
		}
		snaps[e] = serve.SnapshotFromState(e, e, s)
	}
	return snaps, nil
}

// ---- ckpt_pipeline_g6l20_r4 -------------------------------------------

type ckptInst struct {
	sz     sizes
	dir    string
	state  *dycore.State
	store  *core.ShardStore
	poller *serve.ShardPoller
	engine *serve.Engine
	rng    *rand.Rand
	next   int // next epoch number
}

func prepareCkpt(c *runCtx) (instance, prepared, error) {
	ci, setupS, err := newCkpt(c, c.reps)
	return ci, prepared{setupS: setupS}, err
}

// newCkpt builds the producer (mesh, plan, shard store) and the consumer
// (query plane, poller) reps times and returns the last pair with the
// median set-up time. The initial state is an input and is not timed.
func newCkpt(c *runCtx, reps int) (*ckptInst, float64, error) {
	sz := c.sz
	ci := &ckptInst{sz: sz, dir: filepath.Join(c.scratch, "ckpt"), rng: stream(c.seed, streamPerturb)}
	var m *mesh.Mesh
	var err error
	setupS := medianOf(reps, func() {
		m = mesh.New(sz.SrvLevel).ReorderBFS()
		pl := core.NewDistPlan(m, sz.SrvNLev, sz.SrvParts, 12345)
		if ci.store, err = core.NewShardStore(ci.dir, pl); err != nil {
			return
		}
		srv := serve.NewServer(m, serve.Config{}, telemetry.NewRegistry())
		ci.engine = srv.Engine
		ci.poller = serve.NewShardPoller(ci.store, srv.Engine.Store())
	})
	if err != nil {
		return nil, 0, err
	}
	ci.state = dycore.NewState(m, sz.SrvNLev)
	ci.state.InitIdealized(dycore.CaseBaroclinicWave)
	return ci, setupS, nil
}

// publishEpoch is the timed unit: first WriteShard call to first answer
// at the new epoch.
func (ci *ckptInst) publishEpoch(e int, rec *recorder) (time.Duration, error) {
	root := rec.begin("bench.epoch", noSpan, 0)
	defer rec.end(root)
	t0 := time.Now()
	if err := writeEpoch(ci.store, e, ci.state, rec, root); err != nil {
		return 0, err
	}
	id := rec.begin("serve.poll", root, 0)
	n, err := ci.poller.Poll()
	rec.end(id)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("poll after commit of epoch %d published %d snapshots: %v", e, n, err)
	}
	id = rec.begin("serve.first_point", root, 0)
	res, _, qerr := ci.engine.Point(e, "ps", 12.5, 77.25)
	rec.end(id)
	if qerr != nil || res.Epoch != e {
		return 0, fmt.Errorf("first point at epoch %d: answered epoch %d, error %v", e, res.Epoch, qerr)
	}
	return time.Since(t0), nil
}

func (ci *ckptInst) measure(rec *recorder, scale float64) measurement {
	return ci.run(rec, scaled(ci.sz.CkptEpochs, scale))
}

// run publishes the warm-up epochs and then epochs timed ones, with the
// background reader beside the timed ones.
func (ci *ckptInst) run(rec *recorder, epochs int) measurement {
	m := measurement{counts: map[string]int{"epochs": epochs, "warmup_epochs": ci.sz.CkptWarm, "cells": ci.state.M.NCells, "levels": ci.sz.SrvNLev, "ranks": ci.sz.SrvParts}}

	var reads, readFails atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	startReader := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, qerr := ci.engine.Point(-1, "t_sfc", float64(i%120)-60, float64(i%340)-170); qerr != nil {
					readFails.Add(1)
				} else {
					reads.Add(1)
				}
			}
		}()
	}

	var bytes int64
	var files int
	var readerT0 time.Time
	for i := 0; i < ci.sz.CkptWarm+epochs; i++ {
		e := ci.next
		ci.next++
		// Outside the clock: this epoch's state, and retention on disk.
		perturbState(ci.state, ci.rng)
		for _, f := range epochFiles(ci.dir, e-ci.sz.SrvEpochs) {
			os.Remove(f)
		}
		warm := i < ci.sz.CkptWarm
		if i == ci.sz.CkptWarm {
			// The reader needs a published epoch to read; it runs beside
			// every timed epoch.
			startReader()
			readerT0 = time.Now()
		}
		var r *recorder
		if !warm {
			r = rec
			m.attempted++
		}
		d, err := ci.publishEpoch(e, r)
		if err != nil {
			m.fail("%v", err)
			continue
		}
		if warm {
			continue
		}
		m.unitMS = append(m.unitMS, ms(d))
		files = 0
		for _, f := range epochFiles(ci.dir, e) {
			if fi, err := os.Stat(f); err == nil {
				bytes += fi.Size()
				files++
			}
		}
		snap, ok := ci.engine.Store().At(e)
		if want := serve.SnapshotFromState(e, e, ci.state).Checksum(); !ok || snap.Checksum() != want {
			m.fail("published snapshot of epoch %d does not match the producer's state", e)
		}
	}
	close(stop)
	wg.Wait()
	readerWall := time.Since(readerT0).Seconds()
	if n := readFails.Load(); n > 0 {
		m.fail("background reader: %d point queries failed", n)
	}
	n := len(m.unitMS)
	m.counts["epoch_files"] = files
	if n > 0 {
		m.counts["epoch_bytes"] = int(bytes / int64(n))
		m.unitWork = float64(bytes) / float64(n) / 1e6
		m.aggregate()
		m.aliases = []alias{
			{"epoch_publish_ms_p50", "ms", median(m.unitMS), n},
			{"epoch_mb_per_s", "MB/s", m.rate, n},
			{"serve.pipeline_reader_qps", "1/s", float64(reads.Load()) / readerWall, int(reads.Load())},
		}
	}
	return m
}

func (ci *ckptInst) close() { os.RemoveAll(ci.dir) }
