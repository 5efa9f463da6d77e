// Package vfs is the filesystem seam under every durable path: each
// writes through durable.Replace over an FS value instead of calling the
// os package directly. Checkpoint shards and epoch manifests take the FS
// from their ShardStore, so the chaos layer (internal/fault.FS) can
// decorate one interface with torn writes, read bit-flips, ENOSPC, EIO,
// latency and rename reordering; restart and history files are written
// on vfs.OS, the zero-cost passthrough production runs on.
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
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
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

func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}
func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }
