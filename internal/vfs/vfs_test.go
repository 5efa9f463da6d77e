package vfs

import (
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

	raw, err := OS.ReadFile(path)
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
	if _, err := OS.ReadFile(path); err == nil {
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
