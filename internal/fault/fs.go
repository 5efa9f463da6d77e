package fault

// Filesystem fault injection: FS decorates a vfs.FS with the storage
// failure modes real checkpoints die of — torn writes (a short write
// followed by an error), silent read bit-flips, ENOSPC, EIO, slow IO
// and rename-before-sync reordering (the rename's metadata persists
// while the data pages it points at are lost). Like the message-plane
// Plan, every verdict is a pure function of (seed, file name, per-file
// operation ordinal, fault kind) via the sanctioned detrand machinery,
// so a chaos run replays bit-identically from its seed.
//
// Temp-file suffixes are stripped before hashing (CreateTemp draws
// real entropy for its names), so the verdict stream for a checkpoint
// shard does not depend on how many temp names the os package burned.

import (
	"fmt"
	iofs "io/fs"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gristgo/internal/detrand"
	"gristgo/internal/vfs"
)

// FSProfile declares a filesystem fault mix. The zero value injects
// nothing. Probabilities are per operation on the decorated FS.
type FSProfile struct {
	Name string

	WriteTornProb  float64       // a Write persists a prefix, then errors
	WriteErrProb   float64       // a Write/Create fails outright (ENOSPC)
	ReadErrProb    float64       // a read fails (EIO)
	ReadFlipProb   float64       // a read silently flips one bit per 512 bytes
	SlowProb       float64       // an operation stalls
	MaxSlow        time.Duration // injected stalls are uniform in (0, MaxSlow]
	RenameTornProb float64       // a Rename lands before the data synced: the
	// destination holds a truncated prefix of the source
}

// FSProfiles names the built-in filesystem profiles for flag help.
func FSProfiles() string { return "off, fsflaky, fstorn, fsslow" }

// ParseFSProfile resolves a named filesystem fault profile.
func ParseFSProfile(name string) (FSProfile, error) {
	p := FSProfile{Name: name}
	switch name {
	case "", "off", "none":
	case "fsflaky":
		p.ReadErrProb = 0.10
		p.ReadFlipProb = 0.05
		p.WriteErrProb = 0.05
		p.SlowProb = 0.05
		p.MaxSlow = 2 * time.Millisecond
	case "fstorn":
		p.WriteTornProb = 0.15
		p.RenameTornProb = 0.25
	case "fsslow":
		p.SlowProb = 0.5
		p.MaxSlow = 5 * time.Millisecond
	default:
		return FSProfile{}, fmt.Errorf("fault: unknown fs profile %q (known: %s)", name, FSProfiles())
	}
	return p, nil
}

// Verdict salts for the filesystem fault kinds, disjoint from the
// message-plane salts so a shared seed draws independent streams.
const (
	saltFSWriteTorn = iota + 16
	saltFSWriteErr
	saltFSReadErr
	saltFSReadFlip
	saltFSSlow
	saltFSSlowLen
	saltFSRenameTorn
	saltFSTornLen
	saltFSFlipBit
)

// FS is a seeded fault-injecting decorator over an inner vfs.FS. Safe
// for concurrent use; verdicts depend only on (seed, name, per-name
// operation ordinal, kind). SetActive(false) turns injection off —
// the recovery phase of a chaos run — without losing the event log.
type FS struct {
	Seed  int64
	Prof  FSProfile
	inner vfs.FS

	active atomic.Bool

	mu       sync.Mutex
	ops      map[string]int // per-name operation ordinals
	events   []Event
	overflow int
	counts   map[string]int
}

// NewFS decorates inner with the given seeded fault profile; the
// decorator starts active.
func NewFS(inner vfs.FS, seed int64, p FSProfile) *FS {
	f := &FS{Seed: seed, Prof: p, inner: inner, ops: map[string]int{}, counts: map[string]int{}}
	f.active.Store(true)
	return f
}

// SetActive enables or disables injection. Disabling is how a chaos
// harness ends the fault phase: in-flight state (event log, ordinals)
// is kept so a later re-enable continues the same verdict stream.
func (f *FS) SetActive(on bool) { f.active.Store(on) }

// Active reports whether injection is on.
func (f *FS) Active() bool { return f.active.Load() }

// FSEvents returns a copy of the injected-fault log, the overflow
// count, and per-kind totals.
func (f *FS) FSEvents() ([]Event, int, map[string]int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	counts := make(map[string]int, len(f.counts))
	for k, v := range f.counts {
		counts[k] = v
	}
	return append([]Event(nil), f.events...), f.overflow, counts
}

// key canonicalizes a file name for verdict hashing: the base name
// with any CreateTemp entropy suffix stripped, so verdicts are stable
// across runs that draw different temp names.
func fsKey(name string) string {
	base := name
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.Index(base, ".tmp-"); i >= 0 {
		base = base[:i+len(".tmp-")]
	}
	return base
}

// draw returns the deterministic unit draw for the op-th operation of
// kind salt on name, bumping the per-name ordinal exactly once per
// operation (callers pass the same ordinal to every kind they test).
func (f *FS) hash(key string, op, salt int) uint64 {
	x := detrand.Step(uint64(f.Seed) ^ 0x67726973746673) // "gristfs"
	for i := 0; i < len(key); i++ {
		x = detrand.Fold(x, uint64(key[i]))
	}
	x = detrand.Fold(x, uint64(int64(op)))
	return detrand.Fold(x, uint64(int64(salt)))
}

// nextOp claims the next operation ordinal for name.
func (f *FS) nextOp(key string) int {
	f.mu.Lock()
	op := f.ops[key]
	f.ops[key] = op + 1
	f.mu.Unlock()
	return op
}

// record logs one injected filesystem fault.
func (f *FS) record(kind, name, detail string) {
	f.mu.Lock()
	f.counts[kind]++
	if len(f.events) < maxEvents {
		f.events = append(f.events, Event{Kind: kind, Tag: -1, Detail: name + ": " + detail})
	} else {
		f.overflow++
	}
	f.mu.Unlock()
}

// stall injects the slow-IO fault for one operation.
func (f *FS) stall(key string, op int) {
	if f.Prof.SlowProb <= 0 || detrand.Unit(f.hash(key, op, saltFSSlow)) >= f.Prof.SlowProb {
		return
	}
	frac := detrand.Unit(f.hash(key, op, saltFSSlowLen))
	d := time.Duration(frac * float64(f.Prof.MaxSlow))
	if d <= 0 {
		d = time.Microsecond
	}
	f.record("fsslow", key, d.String())
	time.Sleep(d)
}

// corruptRead flips one bit per 512 bytes of buf, deterministically.
func (f *FS) corruptRead(key string, op int, buf []byte) {
	if len(buf) == 0 {
		return
	}
	n := 1 + len(buf)/512
	for i := 0; i < n; i++ {
		h := f.hash(key, op, saltFSReadFlip+16*(i+1))
		pos := int(h % uint64(len(buf)))
		bit := (h >> 32) % 8
		buf[pos] ^= 1 << bit
	}
	f.record("fsreadflip", key, fmt.Sprintf("%d bits", n))
}

// --- vfs.FS implementation -------------------------------------------------

// Create decorates the returned file with the write-side faults; the
// create itself can fail with injected ENOSPC.
func (f *FS) Create(name string) (vfs.File, error) {
	return f.create(name, func() (vfs.File, error) { return f.inner.Create(name) })
}

// CreateTemp is Create for uniquely named temp files.
func (f *FS) CreateTemp(dir, pattern string) (vfs.File, error) {
	return f.create(dir+"/"+pattern, func() (vfs.File, error) { return f.inner.CreateTemp(dir, pattern) })
}

func (f *FS) create(name string, mk func() (vfs.File, error)) (vfs.File, error) {
	key := fsKey(name)
	op := f.nextOp(key)
	if f.active.Load() {
		f.stall(key, op)
		if f.Prof.WriteErrProb > 0 && detrand.Unit(f.hash(key, op, saltFSWriteErr)) < f.Prof.WriteErrProb {
			f.record("fsenospc", key, "create")
			return nil, fmt.Errorf("fault: injected on create %s: %w", key, syscall.ENOSPC)
		}
	}
	inner, err := mk()
	if err != nil {
		return nil, err
	}
	return &faultFile{FS: f, inner: inner, key: key}, nil
}

// ReadFile injects EIO and silent bit-flips on whole-file reads.
func (f *FS) ReadFile(name string) ([]byte, error) {
	key := fsKey(name)
	op := f.nextOp(key)
	if f.active.Load() {
		f.stall(key, op)
		if f.Prof.ReadErrProb > 0 && detrand.Unit(f.hash(key, op, saltFSReadErr)) < f.Prof.ReadErrProb {
			f.record("fseio", key, "readfile")
			return nil, fmt.Errorf("fault: injected reading %s: %w", key, syscall.EIO)
		}
	}
	buf, err := f.inner.ReadFile(name)
	if err != nil {
		return buf, err
	}
	if f.active.Load() && f.Prof.ReadFlipProb > 0 &&
		detrand.Unit(f.hash(key, op, saltFSReadFlip)) < f.Prof.ReadFlipProb {
		f.corruptRead(key, op, buf)
	}
	return buf, nil
}

// Rename injects the rename-before-sync reorder: with the torn
// verdict, the source is truncated to a prefix before the rename, so
// the destination name commits while its data did not — exactly what
// a power cut between rename and data writeback leaves behind.
func (f *FS) Rename(oldpath, newpath string) error {
	key := fsKey(newpath)
	op := f.nextOp(key)
	if f.active.Load() {
		f.stall(key, op)
		if f.Prof.RenameTornProb > 0 && detrand.Unit(f.hash(key, op, saltFSRenameTorn)) < f.Prof.RenameTornProb {
			if err := f.tearFile(oldpath, key, op); err == nil {
				f.record("fsrenametorn", key, "data pages lost before rename")
			}
		}
	}
	return f.inner.Rename(oldpath, newpath)
}

// tearFile rewrites path holding only a deterministic prefix of its
// current content (at least the first byte, never the whole file).
func (f *FS) tearFile(path, key string, op int) error {
	raw, err := f.inner.ReadFile(path)
	if err != nil || len(raw) < 2 {
		return err
	}
	frac := detrand.Unit(f.hash(key, op, saltFSTornLen))
	keep := 1 + int(frac*float64(len(raw)-1))
	if keep >= len(raw) {
		keep = len(raw) - 1
	}
	w, err := f.inner.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.Write(raw[:keep]); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// Remove passes through (the fault model never blocks cleanup).
func (f *FS) Remove(name string) error { return f.inner.Remove(name) }

// MkdirAll passes through.
func (f *FS) MkdirAll(path string, perm iofs.FileMode) error { return f.inner.MkdirAll(path, perm) }

// Glob injects EIO (a directory listing can fail too).
func (f *FS) Glob(pattern string) ([]string, error) {
	key := fsKey(pattern)
	op := f.nextOp(key)
	if f.active.Load() {
		f.stall(key, op)
		if f.Prof.ReadErrProb > 0 && detrand.Unit(f.hash(key, op, saltFSReadErr)) < f.Prof.ReadErrProb/4 {
			f.record("fseio", key, "glob")
			return nil, fmt.Errorf("fault: injected listing %s: %w", key, syscall.EIO)
		}
	}
	return f.inner.Glob(pattern)
}

// faultFile decorates one open file with per-operation verdicts.
type faultFile struct {
	*FS
	inner vfs.File
	key   string
}

func (ff *faultFile) Name() string { return ff.inner.Name() }

// Write injects ENOSPC and torn writes: the torn verdict persists a
// deterministic prefix of b and then reports failure, the short-write
// shape a full disk or a crashed NFS server produces.
func (ff *faultFile) Write(b []byte) (int, error) {
	op := ff.nextOp(ff.key)
	if !ff.active.Load() {
		return ff.inner.Write(b)
	}
	ff.stall(ff.key, op)
	if ff.Prof.WriteErrProb > 0 && detrand.Unit(ff.hash(ff.key, op, saltFSWriteErr)) < ff.Prof.WriteErrProb {
		ff.record("fsenospc", ff.key, "write")
		return 0, fmt.Errorf("fault: injected writing %s: %w", ff.key, syscall.ENOSPC)
	}
	if ff.Prof.WriteTornProb > 0 && len(b) > 1 &&
		detrand.Unit(ff.hash(ff.key, op, saltFSWriteTorn)) < ff.Prof.WriteTornProb {
		frac := detrand.Unit(ff.hash(ff.key, op, saltFSTornLen))
		keep := 1 + int(frac*float64(len(b)-1))
		if keep >= len(b) {
			keep = len(b) - 1
		}
		n, err := ff.inner.Write(b[:keep])
		if err != nil {
			return n, err
		}
		ff.record("fstorn", ff.key, fmt.Sprintf("%d of %d bytes", n, len(b)))
		return n, fmt.Errorf("fault: injected short write on %s (%d of %d bytes): %w",
			ff.key, n, len(b), syscall.ENOSPC)
	}
	return ff.inner.Write(b)
}

// Sync can stall but never lies about success: the lie the fault
// model tells is the rename reorder, which is injected where the
// damage lands (Rename), keeping each fault's blast radius auditable.
func (ff *faultFile) Sync() error {
	if ff.active.Load() {
		ff.stall(ff.key, ff.nextOp(ff.key))
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error { return ff.inner.Close() }
