package serve

import (
	"bytes"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gristgo/internal/core"
	"gristgo/internal/telemetry"
)

// corruptShard flips one payload byte of an epoch's rank-0 shard file.
func corruptShard(t *testing.T, dir string, epoch int) {
	t.Helper()
	path := filepath.Join(dir, shardName(epoch))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func shardName(epoch int) string {
	return filepath.Join("", "shard-e"+pad6(epoch)+"-r0000.grist")
}

func pad6(n int) string {
	s := "000000"
	d := []byte(s)
	for i := 5; i >= 0 && n > 0; i-- {
		d[i] = byte('0' + n%10)
		n /= 10
	}
	return string(d)
}

// pollUntil drives p until cond holds or maxPolls is exhausted,
// returning how many polls it took.
func pollUntil(t *testing.T, p *ShardPoller, maxPolls int, cond func() bool) int {
	t.Helper()
	for i := 1; i <= maxPolls; i++ {
		p.Poll()
		if cond() {
			return i
		}
	}
	t.Fatalf("condition not reached within %d polls", maxPolls)
	return 0
}

// A corrupt epoch is quarantined (counted, skipped), newer epochs keep
// publishing past it, and when the corruption is repaired a backoff
// retry verifies and un-quarantines it.
func TestShardPollerQuarantineLifecycle(t *testing.T) {
	pl := core.NewDistPlan(testMesh, 3, 1, 12345)
	dir := t.TempDir()
	st, err := core.NewShardStore(dir, pl)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewSnapshotStore(8)
	p := NewShardPoller(st, dst)
	p.SetSeed(99)
	reg := telemetry.NewRegistry()
	p.SetMetrics(reg)

	writeEpoch(t, st, 0, 0)
	writeEpoch(t, st, 1, 10)
	corruptShard(t, dir, 1)

	// First poll: epoch 0 publishes, epoch 1 quarantines, and because 1
	// is the head the poll reports the failure (once).
	n, perr := p.Poll()
	if n != 1 || perr == nil {
		t.Fatalf("first poll = (%d, %v), want (1, head error)", n, perr)
	}
	if q := p.Quarantined(); len(q) != 1 || q[0] != 1 {
		t.Fatalf("Quarantined = %v, want [1]", q)
	}
	if got := reg.Counter("grist_serve_quarantined_total", "reason", FailCorrupt).Value(); got != 1 {
		t.Fatalf("quarantined_total{corrupt} = %d, want 1", got)
	}
	if p.Staleness() != 1 {
		t.Fatalf("Staleness = %d, want 1 (epoch 1 committed but unpublished)", p.Staleness())
	}

	// While quarantined and awaiting retry: no error spam, no republish.
	if n, perr := p.Poll(); n != 0 || perr != nil {
		t.Fatalf("quiet poll = (%d, %v), want (0, nil)", n, perr)
	}

	// Production continues past the corrupt epoch.
	writeEpoch(t, st, 2, 20)
	if n, _ := p.Poll(); n != 1 {
		t.Fatal("epoch 2 not published past the quarantined epoch 1")
	}
	if dst.Latest().Epoch != 2 {
		t.Fatalf("Latest = %d, want 2", dst.Latest().Epoch)
	}

	// Repair epoch 1 (rewrite shard + manifest); a due retry verifies it.
	writeEpoch(t, st, 1, 10)
	polls := pollUntil(t, p, 40, func() bool { return len(p.Quarantined()) == 0 })
	t.Logf("un-quarantined after %d polls", polls)
	if _, ok := dst.At(1); !ok {
		t.Fatal("repaired epoch 1 was never published")
	}
	if got := reg.Counter("grist_serve_unquarantined_total").Value(); got != 1 {
		t.Fatalf("unquarantined_total = %d, want 1", got)
	}
	if p.Staleness() != 0 {
		t.Fatalf("Staleness = %d, want 0 after full recovery", p.Staleness())
	}
}

// Regression for the re-derivation bug: when loading the head epoch
// fails, the epochs that WERE published must not be rebuilt on every
// subsequent poll.
func TestShardPollerDoesNotRederivePublishedEpochs(t *testing.T) {
	pl := core.NewDistPlan(testMesh, 3, 1, 12345)
	dir := t.TempDir()
	st, err := core.NewShardStore(dir, pl)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewSnapshotStore(8)
	p := NewShardPoller(st, dst)

	writeEpoch(t, st, 0, 0)
	writeEpoch(t, st, 1, 10)
	writeEpoch(t, st, 2, 20)
	corruptShard(t, dir, 2)

	n, perr := p.Poll()
	if n != 2 || perr == nil {
		t.Fatalf("first poll = (%d, %v), want (2 published, head error)", n, perr)
	}
	// The buggy poller left `last` behind and re-derived epochs 0 and 1
	// here, every poll, forever.
	for i := 0; i < 5; i++ {
		if n, _ := p.Poll(); n != 0 {
			t.Fatalf("poll %d republished %d already-published epochs", i+2, n)
		}
	}
}

// A quarantined epoch that falls below the retention window is evicted
// from the quarantine set (it can never be served again), so permanent
// corruption converges to an empty quarantine instead of retrying
// forever.
func TestShardPollerQuarantineAgesOut(t *testing.T) {
	pl := core.NewDistPlan(testMesh, 3, 1, 12345)
	dir := t.TempDir()
	st, err := core.NewShardStore(dir, pl)
	if err != nil {
		t.Fatal(err)
	}
	retain := 3
	dst := NewSnapshotStore(retain)
	p := NewShardPoller(st, dst)

	writeEpoch(t, st, 0, 0)
	writeEpoch(t, st, 1, 10)
	corruptShard(t, dir, 1)
	p.Poll()
	if len(p.Quarantined()) != 1 {
		t.Fatal("epoch 1 not quarantined")
	}

	// Produce until epoch 1 drops below head-retain (head 4: 4-3 >= 1).
	for e := 2; e <= 4; e++ {
		writeEpoch(t, st, e, e*10)
		p.Poll()
	}
	if q := p.Quarantined(); len(q) != 0 {
		t.Fatalf("Quarantined = %v, want empty after aging out", q)
	}
	if p.Staleness() != 0 {
		t.Fatalf("Staleness = %d, want 0 (everything in-window is published)", p.Staleness())
	}
}

// Crash-restart: a brand-new poller + store + snapshot store over the
// same directory (fresh process state) must reconstruct the snapshot
// window, quarantine set and staleness purely from disk.
func TestShardPollerCrashRestartReconstructs(t *testing.T) {
	pl := core.NewDistPlan(testMesh, 3, 1, 12345)
	dir := t.TempDir()
	st, err := core.NewShardStore(dir, pl)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewSnapshotStore(8)
	p := NewShardPoller(st, dst)
	for e := 0; e <= 3; e++ {
		writeEpoch(t, st, e, e*10)
	}
	corruptShard(t, dir, 2)
	p.Poll()
	beforeEpochs := dst.Epochs()
	beforeQuar := p.Quarantined()
	beforeStale := p.Staleness()
	if len(beforeQuar) != 1 || beforeQuar[0] != 2 {
		t.Fatalf("pre-crash Quarantined = %v, want [2]", beforeQuar)
	}

	// "kill -9": drop every in-memory structure, rebuild from the plan
	// and the directory alone.
	st2, err := core.NewShardStore(dir, core.NewDistPlan(testMesh, 3, 1, 12345))
	if err != nil {
		t.Fatal(err)
	}
	dst2 := NewSnapshotStore(8)
	p2 := NewShardPoller(st2, dst2)
	p2.Poll()

	afterEpochs := dst2.Epochs()
	if len(afterEpochs) != len(beforeEpochs) {
		t.Fatalf("restart epochs = %v, want %v", afterEpochs, beforeEpochs)
	}
	for i := range beforeEpochs {
		if afterEpochs[i] != beforeEpochs[i] {
			t.Fatalf("restart epochs = %v, want %v", afterEpochs, beforeEpochs)
		}
	}
	if q := p2.Quarantined(); len(q) != 1 || q[0] != 2 {
		t.Fatalf("restart Quarantined = %v, want [2]", q)
	}
	if p2.Staleness() != beforeStale {
		t.Fatalf("restart Staleness = %d, want %d", p2.Staleness(), beforeStale)
	}
	// The reconstructed snapshots are bitwise the same.
	for _, e := range beforeEpochs {
		a, _ := dst.At(e)
		b, _ := dst2.At(e)
		if a.Checksum() != b.Checksum() {
			t.Fatalf("epoch %d snapshot differs across restart", e)
		}
	}
}

// The quarantine reason is read off the error's sentinel, not its text:
// an epoch whose shards verify but disagree on the step is "torn", one
// with a shard file gone is "missing".
func TestShardPollerQuarantineReasonLabels(t *testing.T) {
	for _, c := range []struct {
		reason string
		damage func(t *testing.T, st *core.ShardStore)
	}{
		{FailTorn, func(t *testing.T, st *core.ShardStore) {
			if err := st.WriteShard(1, 1, 11, testState(3)); err != nil {
				t.Fatal(err)
			}
		}},
		{FailMissing, func(t *testing.T, st *core.ShardStore) {
			if err := os.Remove(filepath.Join(st.Dir(), "shard-e000001-r0001.grist")); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		st, err := core.NewShardStore(t.TempDir(), core.NewDistPlan(testMesh, 3, 2, 12345))
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 2; p++ {
			if err := st.WriteShard(1, p, 10, testState(3)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Commit(1, 10); err != nil {
			t.Fatal(err)
		}
		c.damage(t, st)

		p := NewShardPoller(st, NewSnapshotStore(4))
		reg := telemetry.NewRegistry()
		p.SetMetrics(reg)
		if n, err := p.Poll(); n != 0 || err == nil {
			t.Fatalf("%s: poll = (%d, %v), want (0, head error)", c.reason, n, err)
		}
		for _, r := range []string{FailMissing, FailTorn, FailCorrupt, FailIO} {
			want := int64(0)
			if r == c.reason {
				want = 1
			}
			if got := reg.Counter("grist_serve_quarantined_total", "reason", r).Value(); got != want {
				t.Errorf("%s epoch: quarantined_total{%s} = %d, want %d", c.reason, r, got, want)
			}
		}
	}
}

// The first poll's backfill derives epochs on up to GOMAXPROCS workers
// but publishes, quarantines, counts and logs them in epoch order: over
// eight committed epochs, one with a corrupt shard, one torn and one
// missing a shard, a poll at GOMAXPROCS 2 leaves exactly what the
// sequential walk at GOMAXPROCS 1 leaves.
func TestShardPollerBackfillQuarantineMatchesSequential(t *testing.T) {
	const nlev, nparts, epochs = 3, 2, 8
	st, err := core.NewShardStore(t.TempDir(), core.NewDistPlan(testMesh, nlev, nparts, 12345))
	if err != nil {
		t.Fatal(err)
	}
	for e := range epochs {
		s := testState(nlev)
		for i := range s.DryMass {
			s.DryMass[i] *= 1 + 1e-6*float64(e)
		}
		for p := range nparts {
			if err := st.WriteShard(e, p, 10*e, s); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Commit(e, 10*e); err != nil {
			t.Fatal(err)
		}
	}
	corruptShard(t, st.Dir(), 2)
	if err := st.WriteShard(4, 1, 41, testState(nlev)); err != nil { // torn
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(st.Dir(), "shard-e000006-r0001.grist")); err != nil {
		t.Fatal(err)
	}

	firstPoll := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		dst := NewSnapshotStore(epochs)
		p := NewShardPoller(st, dst)
		p.SetSeed(7)
		reg := telemetry.NewRegistry()
		p.SetMetrics(reg)
		var logs bytes.Buffer
		p.SetLogger(slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{
			ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
				if a.Key == slog.TimeKey {
					return slog.Attr{}
				}
				return a
			},
		})))
		n, err := p.Poll()
		var out strings.Builder
		fmt.Fprintf(&out, "published %d, error %v\n", n, err)
		for _, e := range dst.Epochs() {
			snap, _ := dst.At(e)
			fmt.Fprintf(&out, "epoch %d step %d checksum %x\n", e, snap.Step, snap.Checksum())
		}
		for _, e := range p.Quarantined() {
			q := p.quarantine[e]
			fmt.Fprintf(&out, "quarantined %d: %s, fails %d, retry at %d\n", e, q.Reason, q.Fails, q.RetryAt)
		}
		fmt.Fprintf(&out, "staleness %d\n", p.Staleness())
		reg.WritePrometheus(&out)
		out.WriteString(logs.String())
		return out.String()
	}
	seq, par := firstPoll(1), firstPoll(2)
	for _, want := range []string{"published 5,", "quarantined 2: corrupt", "quarantined 4: torn", "quarantined 6: missing"} {
		if !strings.Contains(seq, want) {
			t.Errorf("sequential poll lacks %q:\n%s", want, seq)
		}
	}
	if par != seq {
		t.Errorf("first poll at GOMAXPROCS 2 differs from the sequential walk\n--- GOMAXPROCS 1:\n%s--- GOMAXPROCS 2:\n%s", seq, par)
	}
}
