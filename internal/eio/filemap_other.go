//go:build !linux

package eio

import "os"

// fileMap is the no-op stand-in for the Linux file mapping: every page
// read uses pread.
type fileMap struct{}

func (*fileMap) readAt(*os.File, []byte, int64) bool { return false }
func (*fileMap) close()                              {}
