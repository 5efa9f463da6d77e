package vfs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The OS passthrough must behave exactly like the os package for the
// operation mix the durable paths use: temp-write-sync-rename-read.
func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "record.bin")

	f, err := OS.CreateTemp(dir, ".record.bin.tmp-")
	if err != nil {
		t.Fatal(err)
	}
	tmp := f.Name()
	if _, err := f.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := OS.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}

	raw, err := OS.ReadFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "payload" {
		t.Fatalf("read back %q, want %q", raw, "payload")
	}

	names, err := OS.Glob(filepath.Join(dir, "record.*"))
	if err != nil || len(names) != 1 {
		t.Fatalf("Glob = (%v, %v), want one match", names, err)
	}

	if err := OS.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := OS.ReadFile(path, nil); err == nil {
		t.Fatal("ReadFile succeeded after Remove")
	}

	sub := filepath.Join(dir, "a", "b")
	if err := OS.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(sub); err != nil || !info.IsDir() {
		t.Fatalf("MkdirAll result = (%v, %v), want directory", info, err)
	}
}

// Files OS creates start writeback after every full MiB they have been
// written. The hint must change no byte of what reads back, whatever the
// size and however the writes are cut, through Create and CreateTemp.
func TestOSRoundTripUnderWriteback(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name   string
		size   int
		chunks []int // write sizes, cycled
	}{
		{"empty", 0, []int{1}},
		{"one-byte", 1, []int{1}},
		{"one-window", writebackWindow, []int{writebackWindow}},
		{"3.5MiB-odd-chunks", 7 * writebackWindow / 2, []int{4093, 65537, 1, 999331, 12289}},
	} {
		want := make([]byte, c.size)
		for i := range want {
			want[i] = byte(i*131 + i>>11)
		}
		for _, how := range []string{"Create", "CreateTemp"} {
			var f File
			var err error
			if how == "Create" {
				f, err = OS.Create(filepath.Join(dir, c.name))
			} else {
				f, err = OS.CreateTemp(dir, "."+c.name+".tmp-")
			}
			if err != nil {
				t.Fatal(err)
			}
			for off, i := 0, 0; off < len(want); i++ {
				n := min(c.chunks[i%len(c.chunks)], len(want)-off)
				if w, err := f.Write(want[off : off+n]); err != nil || w != n {
					t.Fatalf("%s %s: Write = (%d, %v), want %d", c.name, how, w, err, n)
				}
				off += n
			}
			if got, full := f.(*osFile).started, int64(c.size)&^(writebackWindow-1); got != full {
				t.Errorf("%s %s: writeback started for %d bytes, want the %d of the full windows", c.name, how, got, full)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := OS.ReadFile(f.Name(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s %s: read back %d bytes differing from the %d written", c.name, how, len(got), len(want))
			}
		}
	}
}

// ReadFile(name, buf) returns exactly the file's bytes: in buf when the
// file is shorter than cap(buf), whatever buf held before, and in a
// fresh slice when it is not.
func TestReadFileIntoBuffer(t *testing.T) {
	dir := t.TempDir()
	long, short := filepath.Join(dir, "long"), filepath.Join(dir, "short")
	if err := os.WriteFile(long, bytes.Repeat([]byte("L"), 5000), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(short, []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}

	// in reports whether got starts at buf's first byte.
	in := func(got, buf []byte) bool { return len(got) > 0 && &got[0] == &buf[:1][0] }
	buf := make([]byte, 0, 8192)
	got, err := OS.ReadFile(long, buf)
	if err != nil || len(got) != 5000 || !in(got, buf) {
		t.Fatalf("a 5000-byte file into an 8192-byte buffer: %d bytes, in buf %v, err %v", len(got), in(got, buf), err)
	}
	got, err = OS.ReadFile(short, got)
	if err != nil || string(got) != "short" || !in(got, buf) {
		t.Fatalf("a short file after a long one in the same buffer read %q (in buf %v, err %v), want %q", got, in(got, buf), err, "short")
	}

	small := make([]byte, 0, 16)
	got, err = OS.ReadFile(long, small)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte("L"), 5000)) || in(got, small) {
		t.Fatalf("a 5000-byte file against a 16-byte buffer: %d bytes, in buf %v, err %v; want all of it in a fresh slice", len(got), in(got, small), err)
	}
	if _, err := OS.ReadFile(filepath.Join(dir, "missing"), buf); !os.IsNotExist(err) {
		t.Fatalf("ReadFile of a missing file = %v, want not-exist", err)
	}
}
