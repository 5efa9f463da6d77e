package fault

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"gristgo/internal/vfs"
)

// writeThrough creates name on fsys, writes content, syncs and closes,
// returning the first error.
func writeThrough(fsys vfs.FS, name, content string) error {
	f, err := fsys.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(content)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func TestFSKeyCanonicalization(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"/a/b/shard-e000001-r0000.grist", "shard-e000001-r0000.grist"},
		{"/tmp/x/.epoch-000001.json.tmp-83651234", ".epoch-000001.json.tmp-"},
		{"plain", "plain"},
	} {
		if got := fsKey(tc.in); got != tc.want {
			t.Errorf("fsKey(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// The verdict stream must depend only on (seed, base name, ordinal),
// never on the directory or temp-name entropy — that is what makes a
// chaos run replayable.
func TestFSDeterministicAcrossDirs(t *testing.T) {
	run := func(dir string) map[string]int {
		ffs := NewFS(vfs.OS, 42, FSProfile{
			WriteTornProb: 0.3, WriteErrProb: 0.2, ReadErrProb: 0.2, ReadFlipProb: 0.2,
		})
		for i := 0; i < 20; i++ {
			name := filepath.Join(dir, "record.bin")
			writeThrough(ffs, name, strings.Repeat("x", 700))
			ffs.ReadFile(name, nil)
		}
		_, _, counts := ffs.FSEvents()
		return counts
	}
	a, b := run(t.TempDir()), run(t.TempDir())
	if len(a) == 0 {
		t.Fatal("no faults injected at these probabilities over 20 rounds")
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("count[%q]: %d in run A, %d in run B", k, v, b[k])
		}
	}
	if len(b) != len(a) {
		t.Errorf("fault kinds differ: %v vs %v", a, b)
	}
}

func TestFSTornWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFS(vfs.OS, 1, FSProfile{WriteTornProb: 1})
	name := filepath.Join(dir, "torn.bin")
	f, err := ffs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	payload := strings.Repeat("abcdefgh", 32)
	n, err := f.Write([]byte(payload))
	f.Close()
	if err == nil {
		t.Fatal("torn write reported success")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("torn write error = %v, want ENOSPC in chain", err)
	}
	if n <= 0 || n >= len(payload) {
		t.Fatalf("torn write persisted %d of %d bytes, want a strict prefix", n, len(payload))
	}
	raw, rerr := vfs.OS.ReadFile(name, nil)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(raw) != payload[:n] {
		t.Fatalf("on-disk prefix mismatch: %d bytes on disk, Write reported %d", len(raw), n)
	}
}

func TestFSEnospcAndEIO(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFS(vfs.OS, 2, FSProfile{WriteErrProb: 1})
	if _, err := ffs.Create(filepath.Join(dir, "full.bin")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Create under WriteErrProb=1 = %v, want ENOSPC", err)
	}

	if err := writeThrough(vfs.OS, filepath.Join(dir, "ok.bin"), "data"); err != nil {
		t.Fatal(err)
	}
	rfs := NewFS(vfs.OS, 2, FSProfile{ReadErrProb: 1})
	if _, err := rfs.ReadFile(filepath.Join(dir, "ok.bin"), nil); !errors.Is(err, syscall.EIO) {
		t.Fatalf("ReadFile under ReadErrProb=1 = %v, want EIO", err)
	}
}

func TestFSReadBitFlip(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "flip.bin")
	payload := strings.Repeat("\x00", 1024)
	if err := writeThrough(vfs.OS, name, payload); err != nil {
		t.Fatal(err)
	}
	ffs := NewFS(vfs.OS, 3, FSProfile{ReadFlipProb: 1})
	raw, err := ffs.ReadFile(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	flipped := 0
	for _, b := range raw {
		if b != 0 {
			flipped++
		}
	}
	if flipped == 0 {
		t.Fatal("ReadFlipProb=1 read back unmodified bytes")
	}
	// 1 bit per 512 bytes: a 1024-byte file gets at most 3 corrupt bytes.
	if flipped > 3 {
		t.Fatalf("%d corrupt bytes, want at most 3 for 1 KiB", flipped)
	}
	_, _, counts := ffs.FSEvents()
	if counts["fsreadflip"] == 0 {
		t.Fatal("flip not recorded in event counts")
	}

	// Into a caller's buffer: the same verdict for the same (seed, file,
	// ordinal), and the flips land in the buffer.
	buf := make([]byte, 0, 4096)
	again, err := NewFS(vfs.OS, 3, FSProfile{ReadFlipProb: 1}).ReadFile(name, buf)
	inBuf := len(again) > 0 && &again[0] == &buf[:1][0]
	if err != nil || !bytes.Equal(again, raw) || !inBuf {
		t.Fatalf("read into a buffer: err %v, same bytes %v, in the buffer %v", err, bytes.Equal(again, raw), inBuf)
	}
}

func TestFSRenameTorn(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, ".dest.bin.tmp-1")
	dst := filepath.Join(dir, "dest.bin")
	payload := strings.Repeat("payload!", 16)
	if err := writeThrough(vfs.OS, src, payload); err != nil {
		t.Fatal(err)
	}
	ffs := NewFS(vfs.OS, 4, FSProfile{RenameTornProb: 1})
	if err := ffs.Rename(src, dst); err != nil {
		t.Fatalf("rename-torn Rename must still report success (the lie), got %v", err)
	}
	raw, err := vfs.OS.ReadFile(dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || len(raw) >= len(payload) {
		t.Fatalf("destination holds %d of %d bytes, want a strict prefix", len(raw), len(payload))
	}
	if string(raw) != payload[:len(raw)] {
		t.Fatal("destination is not a prefix of the source data")
	}
	_, _, counts := ffs.FSEvents()
	if counts["fsrenametorn"] != 1 {
		t.Fatalf("fsrenametorn count = %d, want 1", counts["fsrenametorn"])
	}
}

// SetActive(false) must make the decorator a passthrough without
// resetting the ordinal state, so a later re-enable continues the
// stream.
func TestFSSetActive(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFS(vfs.OS, 5, FSProfile{WriteErrProb: 1, ReadErrProb: 1})
	ffs.SetActive(false)
	if ffs.Active() {
		t.Fatal("Active() after SetActive(false)")
	}
	name := filepath.Join(dir, "calm.bin")
	if err := writeThrough(ffs, name, "calm"); err != nil {
		t.Fatalf("inactive decorator injected: %v", err)
	}
	if raw, err := ffs.ReadFile(name, nil); err != nil || string(raw) != "calm" {
		t.Fatalf("inactive read = (%q, %v)", raw, err)
	}
	if _, _, counts := ffs.FSEvents(); len(counts) != 0 {
		t.Fatalf("inactive decorator recorded events: %v", counts)
	}
	ffs.SetActive(true)
	if _, err := ffs.Create(name); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("re-enabled Create = %v, want ENOSPC", err)
	}
}

func TestParseFSProfile(t *testing.T) {
	for _, name := range []string{"off", "fsflaky", "fstorn", "fsslow"} {
		if _, err := ParseFSProfile(name); err != nil {
			t.Errorf("ParseFSProfile(%q) = %v", name, err)
		}
	}
	if _, err := ParseFSProfile("bogus"); err == nil {
		t.Error("ParseFSProfile accepted an unknown profile")
	}
	p, _ := ParseFSProfile("fstorn")
	if p.WriteTornProb == 0 || p.RenameTornProb == 0 {
		t.Errorf("fstorn profile has zero torn probabilities: %+v", p)
	}
}
