// Package vfs abstracts the filesystem underneath the engine so that the
// same LSM-tree code runs against real files (OS backend) or against an
// in-memory filesystem with durability tracking, crash simulation, and an
// attached simulated SSD timing model (Mem backend). The benchmark harness
// uses the Mem backend with a simdisk.Device so that fsync barriers have a
// realistic, controllable cost; the crash tests use the Mem backend's
// sync-tracking to verify the engine's two-barrier commit protocol.
package vfs

import (
	"errors"
	"fmt"
	"io"
)

// ErrNotFound is returned when a named file does not exist.
var ErrNotFound = errors.New("vfs: file not found")

// ErrReadOnly is returned when writing to a file opened for reading.
var ErrReadOnly = errors.New("vfs: file is read-only")

// ErrClosed is returned when operating on a closed file.
var ErrClosed = errors.New("vfs: file is closed")

// ErrPunchHoleUnsupported reports that PunchHole could not deallocate the
// range because the backend (platform or filesystem) lacks hole-punching
// support. Implementations that return it still guarantee the range reads
// back as zeros — only the space reclamation is missing — so callers can
// degrade to accounting the range as dead instead of failing.
var ErrPunchHoleUnsupported = errors.New("vfs: punch hole unsupported by backend")

// File is a file handle. Files created with Create support appending via
// Write; files opened with Open support random reads via ReadAt. The Mem
// backend supports both on every handle; the OS backend opens files with
// modes matching the method used.
//
//boltvet:mustclose
type File interface {
	io.Closer
	// Write appends p to the file.
	Write(p []byte) (int, error)
	// ReadAt reads len(p) bytes starting at offset off.
	ReadAt(p []byte, off int64) (int, error)
	// Sync makes all written data durable. On the Mem backend this is the
	// data barrier: it charges the simulated device and commits the file's
	// contents to the crash-durable image.
	Sync() error
	// Size returns the current file size in bytes.
	Size() (int64, error)
	// PunchHole deallocates the byte range [off, off+length), keeping the
	// file size unchanged. Reads from a hole return zeros. Hole punching is
	// barrier-free (the BoLT paper relies on this: dead logical SSTables
	// are reclaimed without fsync).
	PunchHole(off, length int64) error
}

// FS is a flat-namespace filesystem rooted at the database directory.
type FS interface {
	// Create creates (or truncates) the named file for appending.
	Create(name string) (File, error)
	// Open opens the named file for random-access reads.
	Open(name string) (File, error)
	// Remove deletes the named file.
	Remove(name string) error
	// Rename atomically renames a file, replacing any existing target.
	Rename(oldname, newname string) error
	// List returns the names of all files.
	List() ([]string, error)
	// Stat returns the size of the named file.
	Stat(name string) (int64, error)
	// SyncDir makes directory operations (create/remove/rename) durable.
	SyncDir() error
}

// LogCreator is implemented by a filesystem that has a faster kind of file
// for an append-only log: on Linux, OSFS maps the log into memory so an
// append is a store rather than a write(2). Such a file keeps File's
// contract — an appended byte survives a process crash once Write
// returns, and a power loss once Sync returns — and its bytes past the
// last Write, if any, read as zeros until Close cuts them off.
type LogCreator interface {
	// CreateLog creates (or truncates) the named log file for appending.
	CreateLog(name string) (File, error)
}

// CreateLog creates name with fs's log file when fs implements
// LogCreator, and with fs.Create otherwise.
func CreateLog(fs FS, name string) (File, error) {
	if lc, ok := fs.(LogCreator); ok {
		return lc.CreateLog(name)
	}
	return fs.Create(name)
}

// ReadFull reads exactly len(p) bytes from f at off.
func ReadFull(f File, p []byte, off int64) error {
	n, err := f.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("vfs: short read (%d of %d at %d): %w", n, len(p), off, err)
}

// WriteFile creates name and writes data followed by a sync; a convenience
// used for small metadata files such as CURRENT.
func WriteFile(fs FS, name string, data []byte) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// ReadWholeFile returns the full contents of name.
func ReadWholeFile(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if size == 0 {
		return buf, nil
	}
	if err := ReadFull(f, buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}
