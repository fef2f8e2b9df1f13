//go:build !linux

package vfs

import "os"

// punchHoleNative reports no support on platforms without a hole-punching
// syscall; the caller falls back to zeroing the range in place.
func punchHoleNative(*os.File, int64, int64) error {
	return ErrPunchHoleUnsupported
}

// newLogFile returns a plain file: without mmap and fallocate the log
// appends with write(2).
func newLogFile(f *os.File) File { return &osFile{f: f} }
