//go:build !linux || arm

package vfs

import "os"

// startWriteback is a no-op without sync_file_range: Sync writes it all.
func startWriteback(*os.File, int64, int64) {}
