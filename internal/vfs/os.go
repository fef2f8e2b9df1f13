package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// OSFS is a filesystem backed by a real directory on disk. It is used by
// the examples and by anyone embedding the library against real storage;
// benchmarks use MemFS with a simulated device instead.
type OSFS struct {
	dir string
}

var (
	_ FS         = (*OSFS)(nil)
	_ LogCreator = (*OSFS)(nil)
)

// NewOS returns a filesystem rooted at dir, creating it if necessary.
func NewOS(dir string) (*OSFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vfs: create root %q: %w", dir, err)
	}
	return &OSFS{dir: dir}, nil
}

// Root returns the directory this filesystem is rooted at.
func (o *OSFS) Root() string { return o.dir }

func (o *OSFS) path(name string) string { return filepath.Join(o.dir, name) }

// Create creates or truncates name for appending.
func (o *OSFS) Create(name string) (File, error) {
	f, err := o.create(name)
	if err != nil {
		return nil, err
	}
	return &osFile{f: f}, nil
}

// CreateLog creates or truncates name as an append-only log: a mapped
// append file on Linux (os_linux.go), a plain file elsewhere.
func (o *OSFS) CreateLog(name string) (File, error) {
	f, err := o.create(name)
	if err != nil {
		return nil, err
	}
	return newLogFile(f), nil
}

func (o *OSFS) create(name string) (*os.File, error) {
	f, err := os.OpenFile(o.path(name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("vfs: create %q: %w", name, err)
	}
	return f, nil
}

// Open opens name for random-access reads.
func (o *OSFS) Open(name string) (File, error) {
	f, err := os.Open(o.path(name))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("vfs: open %q: %w", name, ErrNotFound)
		}
		return nil, fmt.Errorf("vfs: open %q: %w", name, err)
	}
	return &osFile{f: f, readonly: true}, nil
}

// Remove deletes name.
func (o *OSFS) Remove(name string) error {
	if err := os.Remove(o.path(name)); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("vfs: remove %q: %w", name, ErrNotFound)
		}
		return fmt.Errorf("vfs: remove %q: %w", name, err)
	}
	return nil
}

// Rename renames oldname to newname.
func (o *OSFS) Rename(oldname, newname string) error {
	if err := os.Rename(o.path(oldname), o.path(newname)); err != nil {
		return fmt.Errorf("vfs: rename %q -> %q: %w", oldname, newname, err)
	}
	return nil
}

// List returns the names of all regular files in the root.
func (o *OSFS) List() ([]string, error) {
	entries, err := os.ReadDir(o.dir)
	if err != nil {
		return nil, fmt.Errorf("vfs: list %q: %w", o.dir, err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// Stat returns the size of name.
func (o *OSFS) Stat(name string) (int64, error) {
	info, err := os.Stat(o.path(name))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, fmt.Errorf("vfs: stat %q: %w", name, ErrNotFound)
		}
		return 0, fmt.Errorf("vfs: stat %q: %w", name, err)
	}
	return info.Size(), nil
}

// SyncDir fsyncs the root directory so renames and unlinks are durable.
func (o *OSFS) SyncDir() error {
	d, err := os.Open(o.dir)
	if err != nil {
		return fmt.Errorf("vfs: open dir %q: %w", o.dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("vfs: sync dir %q: %w", o.dir, err)
	}
	return nil
}

type osFile struct {
	f        *os.File
	readonly bool
}

var _ File = (*osFile)(nil)

func (o *osFile) Write(p []byte) (int, error) {
	if o.readonly {
		return 0, ErrReadOnly
	}
	return o.f.Write(p)
}

func (o *osFile) ReadAt(p []byte, off int64) (int, error) { return o.f.ReadAt(p, off) }

func (o *osFile) Sync() error { return o.f.Sync() }

func (o *osFile) Size() (int64, error) {
	info, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// PunchHole deallocates the given range natively where the platform and
// filesystem support it. Where they do not, it zeroes the range in place
// (so stale table bytes cannot be resurrected by a later Repair scan) and
// returns an error wrapping ErrPunchHoleUnsupported so callers can account
// the range as dead rather than reclaimed. Engine correctness only
// requires that holes read back as zeros, which both paths guarantee.
func (o *osFile) PunchHole(off, length int64) error {
	if o.readonly {
		return ErrReadOnly
	}
	if length <= 0 {
		return nil
	}
	switch err := punchHoleNative(o.f, off, length); {
	case err == nil:
		return nil
	case !errors.Is(err, ErrPunchHoleUnsupported):
		return fmt.Errorf("vfs: punch hole: %w", err)
	}
	const chunk = 64 << 10
	zeros := make([]byte, chunk)
	remaining, at := length, off
	for remaining > 0 {
		n := remaining
		if n > chunk {
			n = chunk
		}
		if _, err := o.f.WriteAt(zeros[:n], at); err != nil {
			return fmt.Errorf("vfs: punch hole: %w", err)
		}
		at += n
		remaining -= n
	}
	return fmt.Errorf("vfs: punch hole [%d,+%d): %w", off, length, ErrPunchHoleUnsupported)
}

func (o *osFile) Close() error { return o.f.Close() }
