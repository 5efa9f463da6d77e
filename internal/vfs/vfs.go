// Package vfs is the filesystem seam under every durable path: each
// writes through durable.Replace over an FS value instead of calling the
// os package directly. Checkpoint shards and epoch manifests take the FS
// from their ShardStore, so the chaos layer (internal/fault.FS) can
// decorate one interface with torn writes, read bit-flips, ENOSPC, EIO,
// latency and rename reordering; restart and history files are written
// on vfs.OS, the passthrough production runs on.
//
// On Linux a file vfs.OS creates starts writeback of each full MiB once
// written (sync_file_range), so the disk works while the writer encodes.
// The hint neither waits nor reports: Sync is still the durability point.
//
// The interface is deliberately the small set the durable paths use:
// create/temp, whole-file read, rename/remove, directory creation and
// globbing. Anything no durable path calls stays off the interface so a
// fault decorator cannot fall out of sync with a path it never sees.
package vfs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is one file open for writing on an FS (reads are whole-file,
// through FS.ReadFile). The method set is what the durable writers need:
// streaming writes, an explicit Sync (the durability point —
// rename-before-sync is the classic torn-commit bug) and the name, for
// the rename and for error messages.
type File interface {
	io.Writer
	io.Closer
	Sync() error
	Name() string
}

// FS is the filesystem operations surface of the durable paths.
// Implementations must be safe for concurrent use by multiple
// goroutines (ranks write their shards in parallel).
type FS interface {
	// Create truncates-or-creates a file for writing.
	Create(name string) (File, error)
	// CreateTemp creates a uniquely named temp file in dir (see
	// os.CreateTemp for the pattern contract).
	CreateTemp(dir, pattern string) (File, error)
	// ReadFile reads a whole file. The bytes land in buf, overwriting
	// it, when the file is shorter than cap(buf), and in a fresh slice
	// otherwise; the result is the file's bytes either way (a
	// decorator may alter them in place).
	ReadFile(name string, buf []byte) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm fs.FileMode) error
	// Glob lists the names matching a shell pattern.
	Glob(pattern string) ([]string, error)
}

// osFS is the passthrough production implementation.
type osFS struct{}

// OS is the real filesystem: every method delegates to the os package.
var OS FS = osFS{}

func (osFS) Create(name string) (File, error) { return newOSFile(os.Create(name)) }
func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return newOSFile(os.CreateTemp(dir, pattern))
}
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }

// ReadFile is os.ReadFile into buf: it reads to EOF, so a file that grew
// after its Stat is still read whole.
func (osFS) ReadFile(name string, buf []byte) ([]byte, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf = buf[:0]
	if fi, err := f.Stat(); err == nil && fi.Size() >= int64(cap(buf)) {
		buf = make([]byte, 0, fi.Size()+512)
	}
	for {
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// writebackWindow is how many bytes an OS file writes between hints.
const writebackWindow = 1 << 20

// osFile is a file OS created: writes go straight to the os.File, and
// each window they complete is handed to startWriteback.
type osFile struct {
	f                *os.File
	written, started int64 // bytes written; the prefix handed to startWriteback
}

func newOSFile(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return &osFile{f: f}, nil
}

func (o *osFile) Write(p []byte) (int, error) {
	n, err := o.f.Write(p)
	o.written += int64(n)
	if full := o.written &^ (writebackWindow - 1); full > o.started {
		startWriteback(o.f, o.started, full-o.started)
		o.started = full
	}
	return n, err
}

func (o *osFile) Sync() error  { return o.f.Sync() }
func (o *osFile) Close() error { return o.f.Close() }
func (o *osFile) Name() string { return o.f.Name() }
