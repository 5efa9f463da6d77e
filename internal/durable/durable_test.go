package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"gristgo/internal/fault"
	"gristgo/internal/vfs"
)

// record frames payload as one record of kind k.
func record(t testing.TB, k Kind, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := Encode(&buf, k, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTripEveryKind(t *testing.T) {
	payload := []byte("sixteen byte pay")
	for _, k := range []Kind{Shard, Restart, History} {
		raw := record(t, k, payload)
		if len(raw) != len(payload)+Overhead {
			t.Fatalf("%s record is %d bytes, want payload+%d", k, len(raw), Overhead)
		}
		got, err := Decode(raw, k)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: Decode = (%q, %v), want the payload back", k, got, err)
		}
	}
	if _, err := Decode(record(t, Shard, nil), Shard); err != nil {
		t.Fatalf("empty payload rejected: %v", err)
	}
}

// The one corruption table: every way a record can be damaged is refused
// with ErrCorrupt and a reason that names the damage. The per-format
// tests only prove their format is on this container.
func TestDecodeRejectsCorruption(t *testing.T) {
	good := record(t, Shard, bytes.Repeat([]byte{0xA5}, 64))
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	flip := func(i int) []byte { return mutate(func(b []byte) []byte { b[i] ^= 0x01; return b }) }
	cases := []struct {
		name, wantSub string
		raw           []byte
		kind          Kind
	}{
		{"empty", "truncated", nil, Shard},
		{"below-header", "truncated", good[:5], Shard},
		{"header-only", "truncated", good[:headerLen+trailerLen-1], Shard},
		{"truncated-payload", "CRC32", good[:len(good)/2], Shard},
		{"one-byte-short", "CRC32", good[:len(good)-1], Shard},
		{"one-byte-long", "CRC32", append(append([]byte(nil), good...), 0), Shard},
		{"bad-magic", "not a shard file", mutate(func(b []byte) []byte { copy(b, "GDFX"); return b }), Shard},
		{"bad-version", "version", mutate(func(b []byte) []byte { b[4] ^= 0xff; return b }), Shard},
		{"wrong-kind", "a restart record, not a shard", record(t, Restart, []byte("gob")), Shard},
		{"shard-as-history", "a shard record, not a history", good, History},
		{"retired-kind", "a kind(3) record, not a shard", record(t, Kind(3), []byte("leader stream")), Shard},
		{"bit-flip-magic", "not a shard file", flip(0), Shard},
		{"bit-flip-version", "version", flip(5), Shard},
		{"bit-flip-kind", "record, not a shard", flip(6), Shard},
		{"bit-flip-pad", "reserved", flip(7), Shard},
		{"bit-flip-payload", "CRC32", flip(len(good) / 2), Shard},
		{"bit-flip-trailer", "CRC32", flip(len(good) - 1), Shard},
	}
	if _, err := Decode(good, Shard); err != nil {
		t.Fatalf("pristine record rejected: %v", err)
	}
	for _, c := range cases {
		_, err := Decode(c.raw, c.kind)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
}

func TestReadFileTellsMissingFromCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.grist")
	if _, err := ReadFile(vfs.OS, path, Shard); !errors.Is(err, os.ErrNotExist) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing file: err = %v, want ErrNotExist and not ErrCorrupt", err)
	}
	if err := WriteFile(vfs.OS, path, Restart, func(w io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(vfs.OS, path, Shard); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "rec.grist") {
		t.Fatalf("restart file read as shard: err = %v, want ErrCorrupt naming the file", err)
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// A torn write or a failing writer must leave the old content under the
// name and no temp litter beside it.
func TestReplaceFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.grist")
	if err := WriteFile(vfs.OS, path, Shard, func(w io.Writer) error {
		_, err := w.Write([]byte("old"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("new!"), 1<<15) // two buffer flushes
	write := func(w io.Writer) error { _, err := w.Write(big); return err }

	ffs := fault.NewFS(vfs.OS, 7, fault.FSProfile{WriteTornProb: 1})
	if err := WriteFile(ffs, path, Shard, write); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("WriteFile under WriteTornProb=1 = %v, want ENOSPC", err)
	}
	boom := errors.New("encoder failed")
	if err := Replace(vfs.OS, path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Replace = %v, want the writer's error", err)
	}
	if got := dirNames(t, dir); len(got) != 1 || got[0] != "rec.grist" {
		t.Fatalf("directory holds %v, want only rec.grist", got)
	}
	if payload, err := ReadFile(vfs.OS, path, Shard); err != nil || string(payload) != "old" {
		t.Fatalf("after failed replaces ReadFile = (%q, %v), want the old record", payload, err)
	}
}

// Rename-before-sync is the silent tear: Replace reports success and the
// name exists, but the data pages were lost. The checksum must catch it.
func TestReplaceRenameTornIsDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.grist")
	ffs := fault.NewFS(vfs.OS, 9, fault.FSProfile{RenameTornProb: 1})
	payload := bytes.Repeat([]byte{7}, 4096)
	if err := WriteFile(ffs, path, History, func(w io.Writer) error { _, err := w.Write(payload); return err }); err != nil {
		t.Fatalf("rename-torn WriteFile must lie about success, got %v", err)
	}
	if _, _, counts := ffs.FSEvents(); counts["fsrenametorn"] == 0 {
		t.Fatal("no fsrenametorn event recorded")
	}
	if _, err := ReadFile(vfs.OS, path, History); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadFile of a rename-torn record = %v, want ErrCorrupt", err)
	}
}

// FuzzDecode: arbitrary bytes are either refused with ErrCorrupt or are
// exactly the record Encode would write for the returned payload.
func FuzzDecode(f *testing.F) {
	// 3 is the retired kind; its seeds stay, so every seed#N keeps its bytes.
	for _, k := range []Kind{Shard, Restart, 3, History} {
		good := record(f, k, []byte("payload bytes"))
		f.Add(good, uint8(k))
		f.Add(good, uint8(k%4+1))           // wrong kind
		f.Add(good[:len(good)-3], uint8(k)) // truncated
		for _, i := range []int{0, 4, 6, 7, headerLen, len(good) - 1} {
			bad := append([]byte(nil), good...)
			bad[i] ^= 0x10
			f.Add(bad, uint8(k))
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, kind uint8) {
		payload, err := Decode(raw, Kind(kind))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if again := record(t, Kind(kind), payload); !bytes.Equal(again, raw) {
			t.Fatalf("accepted %x, but its payload encodes to %x", raw, again)
		}
	})
}
