//go:build linux

package vfs

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"syscall"
)

// fallocate flags from linux/falloc.h; the syscall package does not export
// them. Punching requires KEEP_SIZE so the file length is unchanged.
const (
	fallocFlKeepSize  = 0x1
	fallocFlPunchHole = 0x2
)

// punchHoleNative deallocates [off, off+length) with FALLOC_FL_PUNCH_HOLE.
// Filesystems without hole support (and kernels without fallocate) report
// ErrPunchHoleUnsupported so the caller can fall back to zeroing.
func punchHoleNative(f *os.File, off, length int64) error {
	err := syscall.Fallocate(int(f.Fd()), fallocFlPunchHole|fallocFlKeepSize, off, length)
	if errors.Is(err, syscall.EOPNOTSUPP) || errors.Is(err, syscall.ENOSYS) {
		return ErrPunchHoleUnsupported
	}
	return err
}

// A mapped log file grows by logWindow at a time and is mapped logSpan at
// a time. Both are multiples of the page size, so every mapping's file
// offset is one too. Unmapping costs in proportion to the pages the
// mapping touched (≈ 120 µs per MiB on a 2-vCPU guest), so a span is
// unmapped only when the log outgrows it, which a log sized by a memtable
// of up to 64 MiB never does, and at Close, which the engine calls off the
// commit path.
const (
	logWindow = 1 << 20
	logSpan   = 64 << 20
)

// errNoFallocate reports a filesystem that cannot preallocate; the log
// file then appends with write(2).
var errNoFallocate = errors.New("vfs: fallocate unsupported")

// mappedLog is a log file whose appends are stores into a shared mapping
// of the file rather than write(2) calls. The file grows by logWindow at a
// time with fallocate mode 0, which raises its size, so a store never
// lands past the end of the file (that would raise SIGBUS), and the blocks
// are reserved before any store, so a full disk is an error from Write
// rather than a fault. The mapping is MAP_SHARED: a stored byte is in the
// page cache at once, so it survives a process crash exactly as a written
// one does, and Sync's fsync of the descriptor writes back the pages
// dirtied through the mapping.
//
// The bytes between the last Write and the end of the preallocated window
// read as zeros, which the log reader takes for the end of the log; Close
// cuts them off. The file is mapped and grown by the first Write, so
// creating a log costs what Create costs. Like every File that appends,
// it is not safe for concurrent use.
type mappedLog struct {
	osFile
	span    []byte // the mapping, logSpan bytes of the file from spanOff; nil before the first Write and after Close
	spanOff int64
	alloc   int64 // bytes preallocated: the file's size while it is open
	size    int64 // logical length: the bytes written
	plain   bool  // no fallocate here: append with pwrite
	err     error // sticky: a failed grow or store leaves the file unwritable
}

var _ File = (*mappedLog)(nil)

func newLogFile(f *os.File) File { return &mappedLog{osFile: osFile{f: f}} }

func (m *mappedLog) Write(p []byte) (int, error) {
	if m.err != nil {
		return 0, m.err
	}
	written := 0
	for written < len(p) {
		if m.plain {
			n, err := m.f.WriteAt(p[written:], m.size)
			m.size += int64(n)
			return written + n, err
		}
		if m.size == m.alloc {
			switch err := m.grow(); {
			case errors.Is(err, errNoFallocate):
				m.plain = true
				continue
			case err != nil:
				m.err = err
				return written, err
			}
		}
		n, err := m.store(p[written:])
		written += n
		m.size += int64(n)
		if err != nil {
			m.err = err
			return written, err
		}
	}
	return written, nil
}

// grow preallocates the next window and, when the window lies past the
// mapping, replaces the mapping with one starting at the window.
func (m *mappedLog) grow() error {
	fd := int(m.f.Fd())
	switch err := syscall.Fallocate(fd, 0, m.alloc, logWindow); {
	case errors.Is(err, syscall.EOPNOTSUPP) || errors.Is(err, syscall.ENOSYS):
		return errNoFallocate
	case err != nil:
		return fmt.Errorf("vfs: preallocate log window at %d: %w", m.alloc, err)
	}
	m.alloc += logWindow
	if m.span != nil && m.alloc <= m.spanOff+logSpan {
		return nil
	}
	if m.span != nil {
		if err := syscall.Munmap(m.span); err != nil {
			return fmt.Errorf("vfs: unmap log: %w", err)
		}
		m.span = nil
	}
	// The mapping may run past the end of the file: only the preallocated
	// part of it is ever stored to.
	span, err := syscall.Mmap(fd, m.size, logSpan, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("vfs: map log at %d: %w", m.size, err)
	}
	m.span, m.spanOff = span, m.size
	return nil
}

// store copies as much of p as the preallocated window holds. A fault
// during the copy (the file truncated under the mapping, a media error)
// becomes an error instead of killing the process.
func (m *mappedLog) store(p []byte) (n int, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, fault := r.(interface{ Addr() uintptr }); !fault {
			panic(r)
		}
		err = fmt.Errorf("vfs: fault storing to mapped log %s at %d: %v", m.f.Name(), m.size, r)
	}()
	return copy(m.span[m.size-m.spanOff:m.alloc-m.spanOff], p), nil
}

func (m *mappedLog) Size() (int64, error) { return m.size, nil }

// Close unmaps the file, cuts it to its logical length and closes it.
func (m *mappedLog) Close() error {
	var err error
	if m.span != nil {
		err = syscall.Munmap(m.span)
		m.span = nil
	}
	if m.alloc > m.size {
		err = cmp.Or(err, m.f.Truncate(m.size))
		m.alloc = m.size
	}
	return cmp.Or(err, m.f.Close())
}
