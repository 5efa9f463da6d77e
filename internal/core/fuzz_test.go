package core

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"gristgo/internal/durable"
	"gristgo/internal/dycore"
	"gristgo/internal/mesh"
	"gristgo/internal/physics"
)

// The fuzz targets run on a G1 mesh (42 cells) with two layers so the
// checked-in corpus entries stay a few kilobytes each.
const fuzzNLev = 2

var fuzzMesh = mesh.New(1)

// framed wraps data as the payload of a valid record, so the fuzzer
// reaches the checks behind the container's checksum as well as the
// container's own.
func framed(t testing.TB, k durable.Kind, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := durable.Encode(&buf, k, func(w io.Writer) error { _, err := w.Write(data); return err })
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzStore is a two-rank store holding one committed epoch (1, step 5)
// of a non-trivial state.
func fuzzStore(t testing.TB) (*ShardStore, *dycore.State) {
	t.Helper()
	st, err := NewShardStore(t.TempDir(), NewDistPlan(fuzzMesh, fuzzNLev, 2, 12345))
	if err != nil {
		t.Fatal(err)
	}
	src := dycore.NewState(fuzzMesh, fuzzNLev)
	resilientInit(src)
	for p := 0; p < 2; p++ {
		if err := st.WriteShard(1, p, 5, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(1, 5); err != nil {
		t.Fatal(err)
	}
	return st, src
}

// FuzzReadShard: arbitrary bytes under a shard's name — raw, or as the
// payload of a valid shard record — are refused, or restore exactly the
// state the file holds: writing the restored state back reproduces the
// file byte for byte.
func FuzzReadShard(f *testing.F) {
	st, _ := fuzzStore(f)
	path := st.shardPath(1, 0)
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	payload := good[8 : len(good)-4] // between the container's header and trailer
	f.Add(good, false)
	f.Add(good[:len(good)/2], false)
	f.Add(payload, true)
	f.Add(payload[:shardMetaLen], true)
	f.Add(payload[:len(payload)-8], true)
	for i := 0; i < shardMetaLen; i += 4 {
		bad := append([]byte(nil), payload...)
		bad[i]++
		f.Add(bad, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, frame bool) {
		if frame {
			data = framed(t, durable.Shard, data)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got := dycore.NewState(fuzzMesh, fuzzNLev)
		step, err := st.ReadShard(1, 0, got)
		if err != nil {
			return
		}
		if err := st.WriteShard(1, 0, step, got); err != nil {
			t.Fatal(err)
		}
		if again, _ := os.ReadFile(path); !bytes.Equal(again, data) {
			t.Fatalf("ReadShard accepted %d bytes that are not what WriteShard writes for the restored state", len(data))
		}
	})
}

// FuzzManifest: an arbitrary epoch-*.json beside a good epoch never
// panics the two listings, never lists an epoch unless its JSON parses,
// and never makes LatestCommitted offer an epoch that does not load.
func FuzzManifest(f *testing.F) {
	st, src := fuzzStore(f)
	for p := 0; p < 2; p++ {
		if err := st.WriteShard(2, p, 10, src); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte(`{"epoch":2,"step":10,"nparts":2}` + "\n"))
	f.Add([]byte(`{"epoch":2,"step":11,"nparts":2}`))
	f.Add([]byte(`{"epoch":1,"step":99,"nparts":2}`))
	f.Add([]byte(`{"epoch":-7,"step":0,"nparts":2}`))
	f.Add([]byte(`{"epoch":99999999999,"step":1,"nparts":2}`))
	f.Add([]byte(`{"epoch":2,"step":10,"nparts":2,"gen":3}`))
	f.Add([]byte(`{"epoch":2,"step":10,"nparts":7}`))
	f.Add([]byte(`{"epoch":2,"step":10,"npar`))
	f.Add([]byte(`[2,10,2]`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(st.Dir(), "epoch-000002.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		eps, err := st.CommittedEpochs()
		if err != nil {
			t.Fatalf("CommittedEpochs: %v", err)
		}
		var m epochManifest
		if json.Unmarshal(data, &m) != nil && (len(eps) != 1 || eps[0] != EpochInfo{1, 5}) {
			t.Fatalf("unparseable manifest %q changed the listing to %v", data, eps)
		}
		epoch, step, ok := st.LatestCommitted()
		if !ok {
			t.Fatal("LatestCommitted lost the good epoch")
		}
		if got, err := st.LoadEpochState(epoch, dycore.NewState(fuzzMesh, fuzzNLev)); err != nil || got != step {
			t.Fatalf("LatestCommitted offered (%d, %d), which loads as (%d, %v)", epoch, step, got, err)
		}
	})
}

// FuzzReadRestart: arbitrary bytes — raw, or as the gob payload of a
// valid restart record — never panic ReadRestart.
func FuzzReadRestart(f *testing.F) {
	mod := NewModelOnMesh(Config{GridLevel: 1, NLev: fuzzNLev}, physics.Null{}, fuzzMesh)
	resilientInit(mod.Engine.State())
	var buf bytes.Buffer
	if err := mod.WriteRestart(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	gob := good[8 : len(good)-4] // between the container's header and trailer
	f.Add(good, false)
	f.Add(good[:len(good)/2], false)
	f.Add(gob, true)
	f.Add(gob[:len(gob)/2], true)
	f.Add(gob[:len(gob)-1], true)
	for _, i := range []int{0, 1, 8, len(gob) / 3, len(gob) / 2} {
		bad := append([]byte(nil), gob...)
		bad[i] ^= 0x40
		f.Add(bad, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, frame bool) {
		if frame {
			data = framed(t, durable.Restart, data)
		}
		_ = mod.ReadRestart(bytes.NewReader(data)) // any error is fine; a panic is not
	})
}
