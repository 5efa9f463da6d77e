//go:build !arm

package vfs

import (
	"os"
	"syscall"
)

// startWriteback asks the kernel to start writing [off, off+n) of f back
// and returns at once: SYNC_FILE_RANGE_WRITE (2) waits for nothing. Its
// error is dropped, since the hint changes no bytes and Sync reports any
// writeback failure.
func startWriteback(f *os.File, off, n int64) {
	if rc, err := f.SyscallConn(); err == nil {
		rc.Control(func(fd uintptr) { syscall.SyncFileRange(int(fd), off, n, 2) })
	}
}
