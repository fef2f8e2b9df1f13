package vfs

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Op labels an injectable operation site on an ErrorFS. The set mirrors
// every place the engine touches storage: file creation, appends, random
// reads, data barriers, directory barriers, renames, unlinks, and hole
// punches.
type Op uint8

// The injectable operation sites.
const (
	OpCreate Op = iota
	OpWrite
	OpReadAt
	OpSync
	OpSyncDir
	OpRename
	OpRemove
	OpPunchHole
	numOps
)

var opNames = [numOps]string{
	OpCreate:    "Create",
	OpWrite:     "Write",
	OpReadAt:    "ReadAt",
	OpSync:      "Sync",
	OpSyncDir:   "SyncDir",
	OpRename:    "Rename",
	OpRemove:    "Remove",
	OpPunchHole: "PunchHole",
}

// String names the operation.
func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("Op(%d)", op)
}

// InjectedError is the fault an ErrorFS injector returns. Permanent faults
// model broken hardware (every retry fails the same way); transient faults
// model recoverable conditions such as a momentary I/O hiccup.
type InjectedError struct {
	Op        Op
	Name      string
	Permanent bool
}

// Error describes the fault.
func (e *InjectedError) Error() string {
	kind := "transient"
	if e.Permanent {
		kind = "permanent"
	}
	return fmt.Sprintf("vfs: injected %s %s fault on %q", kind, e.Op, e.Name)
}

// Transient reports whether retrying the operation may succeed. The engine's
// background-error classifier consults this via errors.As.
func (e *InjectedError) Transient() bool { return !e.Permanent }

// Injector decides, before each labeled operation runs, whether it fails.
// op and name identify the site; n is the 1-based count of op occurrences
// so far (including this one), across all files. Returning a non-nil error
// fails the operation without reaching the wrapped filesystem. Injectors
// may be called from any goroutine and may call back into the ErrorFS's
// CrashImage/TornCrashImage (crash-at-fault-point hooks do).
type Injector interface {
	Inject(op Op, name string, n int64) error
}

// InjectorFunc adapts a function to the Injector interface.
type InjectorFunc func(op Op, name string, n int64) error

// Inject calls f.
func (f InjectorFunc) Inject(op Op, name string, n int64) error { return f(op, name, n) }

// FailNth returns a deterministic injector: with permanent false it fails
// exactly the nth occurrence of op (a one-shot transient fault); with
// permanent true it fails the nth and every later occurrence.
func FailNth(op Op, nth int64, permanent bool) Injector {
	return InjectorFunc(func(o Op, name string, n int64) error {
		if o != op {
			return nil
		}
		if n == nth || (permanent && n > nth) {
			return &InjectedError{Op: o, Name: name, Permanent: permanent}
		}
		return nil
	})
}

// FailProb returns a seeded probabilistic injector failing each listed op
// with probability p. An empty ops list targets every op.
func FailProb(seed int64, p float64, permanent bool, ops ...Op) Injector {
	var match [numOps]bool
	for _, op := range ops {
		match[op] = true
	}
	all := len(ops) == 0
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return InjectorFunc(func(o Op, name string, n int64) error {
		if !all && (int(o) >= len(match) || !match[o]) {
			return nil
		}
		mu.Lock()
		hit := rng.Float64() < p
		mu.Unlock()
		if hit {
			return &InjectedError{Op: o, Name: name, Permanent: permanent}
		}
		return nil
	})
}

// FilterName narrows inj to operations whose file name satisfies pred.
func FilterName(pred func(name string) bool, inj Injector) Injector {
	return InjectorFunc(func(o Op, name string, n int64) error {
		if !pred(name) {
			return nil
		}
		return inj.Inject(o, name, n)
	})
}

// Corruptor silently mutates the result buffer of a successful labeled read
// — the bit-rot analogue of Injector. op and name identify the site, n is
// the same 1-based occurrence count Injector.Inject sees, p is the bytes
// the read returned (mutate in place to corrupt them), and off is the file
// offset the read started at. Unlike an Injector, a Corruptor cannot fail
// the operation: the caller observes a clean read of wrong bytes, which is
// exactly what rotted media looks like above the driver.
type Corruptor interface {
	Corrupt(op Op, name string, n int64, p []byte, off int64)
}

// CorruptorFunc adapts a function to the Corruptor interface.
type CorruptorFunc func(op Op, name string, n int64, p []byte, off int64)

// Corrupt calls f.
func (f CorruptorFunc) Corrupt(op Op, name string, n int64, p []byte, off int64) {
	f(op, name, n, p, off)
}

// CorruptNth returns a deterministic corruptor: on exactly the nth
// occurrence of op it flips every bit of the byte in the middle of the
// result (or zeroes the whole result when zero is true). Later occurrences
// pass through untouched.
func CorruptNth(op Op, nth int64, zero bool) Corruptor {
	return CorruptorFunc(func(o Op, name string, n int64, p []byte, off int64) {
		if o != op || n != nth || len(p) == 0 {
			return
		}
		if zero {
			for i := range p {
				p[i] = 0
			}
			return
		}
		p[len(p)/2] ^= 0xff
	})
}

// CorruptProb returns a seeded probabilistic corruptor flipping one random
// byte of each listed op's result with probability prob. An empty ops list
// targets every op.
func CorruptProb(seed int64, prob float64, ops ...Op) Corruptor {
	var match [numOps]bool
	for _, op := range ops {
		match[op] = true
	}
	all := len(ops) == 0
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return CorruptorFunc(func(o Op, name string, n int64, p []byte, off int64) {
		if (!all && (int(o) >= len(match) || !match[o])) || len(p) == 0 {
			return
		}
		mu.Lock()
		hit := rng.Float64() < prob
		var i int
		if hit {
			i = rng.Intn(len(p))
		}
		mu.Unlock()
		if hit {
			p[i] ^= 0xff
		}
	})
}

// FilterCorruptName narrows c to reads whose file name satisfies pred.
func FilterCorruptName(pred func(name string) bool, c Corruptor) Corruptor {
	return CorruptorFunc(func(o Op, name string, n int64, p []byte, off int64) {
		if !pred(name) {
			return
		}
		c.Corrupt(o, name, n, p, off)
	})
}

// ErrorFS wraps a filesystem with labeled fault-injection sites and, when
// the wrapped filesystem is a *MemFS, crash images of it.
// Each operation first consults the installed injector (if any); a non-nil
// result fails the operation before it reaches the wrapped filesystem, so
// an injected Sync failure really does leave the affected bytes unsynced.
type ErrorFS struct {
	inner FS //boltvet:guardedby none -- immutable after NewErrorFS

	// counts is the per-op occurrence counter feeding Injector.Inject.
	counts [numOps]atomic.Int64 //boltvet:guardedby atomic

	mu   sync.Mutex
	inj  Injector  //boltvet:guardedby mu
	corr Corruptor //boltvet:guardedby mu
}

var (
	_ FS         = (*ErrorFS)(nil)
	_ LogCreator = (*ErrorFS)(nil)
)

// NewErrorFS wraps inner with no injector installed (all operations pass
// through until SetInjector is called).
func NewErrorFS(inner FS) *ErrorFS {
	return &ErrorFS{inner: inner}
}

// SetInjector installs inj; nil disables injection. Safe to call while the
// filesystem is in use.
func (fs *ErrorFS) SetInjector(inj Injector) {
	fs.mu.Lock()
	fs.inj = inj
	fs.mu.Unlock()
}

// SetCorruptor installs c; nil disables bit-rot corruption. Safe to call
// while the filesystem is in use.
func (fs *ErrorFS) SetCorruptor(c Corruptor) {
	fs.mu.Lock()
	fs.corr = c
	fs.mu.Unlock()
}

// OpCount returns how many occurrences of op have been observed (whether
// or not they were failed).
func (fs *ErrorFS) OpCount(op Op) int64 { return fs.counts[op].Load() }

// check counts the operation and consults the injector. The injector runs
// outside fs.mu so its hook may call back into CrashImage/TornCrashImage.
func (fs *ErrorFS) check(op Op, name string) error {
	_, err := fs.checkN(op, name)
	return err
}

// checkN is check returning the occurrence count too, for sites that also
// consult the corruptor with the same count.
func (fs *ErrorFS) checkN(op Op, name string) (int64, error) {
	n := fs.counts[op].Add(1)
	fs.mu.Lock()
	inj := fs.inj
	fs.mu.Unlock()
	if inj == nil {
		return n, nil
	}
	return n, inj.Inject(op, name, n)
}

// corrupt hands a successful read result to the installed corruptor, if any.
func (fs *ErrorFS) corrupt(op Op, name string, n int64, p []byte, off int64) {
	fs.mu.Lock()
	corr := fs.corr
	fs.mu.Unlock()
	if corr != nil {
		corr.Corrupt(op, name, n, p, off)
	}
}

// Create creates (or truncates) name, subject to OpCreate injection.
func (fs *ErrorFS) Create(name string) (File, error) {
	return fs.create(name, fs.inner.Create)
}

// CreateLog creates name with the wrapped filesystem's log file, subject
// to OpCreate injection like Create; its handle's writes and syncs are
// injection sites like any other file's.
func (fs *ErrorFS) CreateLog(name string) (File, error) {
	return fs.create(name, func(name string) (File, error) { return CreateLog(fs.inner, name) })
}

func (fs *ErrorFS) create(name string, create func(string) (File, error)) (File, error) {
	if err := fs.check(OpCreate, name); err != nil {
		return nil, err
	}
	f, err := create(name)
	if err != nil {
		return nil, err
	}
	return &errorFile{fs: fs, name: name, inner: f}, nil
}

// Open opens name for reads. Open itself is not an injection site, but the
// returned handle's operations are (Repair syncs files through Open
// handles).
func (fs *ErrorFS) Open(name string) (File, error) {
	f, err := fs.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &errorFile{fs: fs, name: name, inner: f}, nil
}

// Remove deletes name, subject to OpRemove injection.
func (fs *ErrorFS) Remove(name string) error {
	if err := fs.check(OpRemove, name); err != nil {
		return err
	}
	return fs.inner.Remove(name)
}

// Rename renames oldname to newname, subject to OpRename injection.
func (fs *ErrorFS) Rename(oldname, newname string) error {
	if err := fs.check(OpRename, oldname); err != nil {
		return err
	}
	return fs.inner.Rename(oldname, newname)
}

// List returns all file names (never injected).
func (fs *ErrorFS) List() ([]string, error) { return fs.inner.List() }

// Stat returns the size of name (never injected).
func (fs *ErrorFS) Stat(name string) (int64, error) { return fs.inner.Stat(name) }

// SyncDir syncs the directory, subject to OpSyncDir injection.
func (fs *ErrorFS) SyncDir() error {
	if err := fs.check(OpSyncDir, ""); err != nil {
		return err
	}
	return fs.inner.SyncDir()
}

// CrashImage returns the crash-durable state of the wrapped MemFS (it
// panics when the inner filesystem is not a *MemFS). The injector hook may
// call this to snapshot the image at the exact fault point.
func (fs *ErrorFS) CrashImage() *MemFS {
	return fs.inner.(*MemFS).CrashClone()
}

// CorruptFileRange flips every bit in [off, off+length) of name's at-rest
// contents in the wrapped MemFS (it panics when the inner filesystem is not
// a *MemFS) — the handle crash harnesses use to rot bytes in an image
// between reopen cycles.
func (fs *ErrorFS) CorruptFileRange(name string, off, length int64) error {
	return fs.inner.(*MemFS).CorruptFileRange(name, off, length)
}

// TornCrashImage is CrashImage plus torn writes (see
// MemFS.TornCrashClone; it panics when the inner filesystem is not a
// *MemFS).
func (fs *ErrorFS) TornCrashImage(rng *rand.Rand) *MemFS {
	return fs.inner.(*MemFS).TornCrashClone(rng)
}

// errorFile routes a handle's operations through the ErrorFS check sites.
type errorFile struct {
	fs    *ErrorFS
	name  string
	inner File
}

var _ File = (*errorFile)(nil)

func (f *errorFile) Write(p []byte) (int, error) {
	if err := f.fs.check(OpWrite, f.name); err != nil {
		return 0, err
	}
	return f.inner.Write(p)
}

func (f *errorFile) ReadAt(p []byte, off int64) (int, error) {
	cnt, err := f.fs.checkN(OpReadAt, f.name)
	if err != nil {
		return 0, err
	}
	n, err := f.inner.ReadAt(p, off)
	if n > 0 {
		// Bit rot presents as a clean read of wrong bytes: the corruptor
		// mutates the result after the inner read succeeded, so no error
		// surfaces here — only checksums downstream can catch it.
		f.fs.corrupt(OpReadAt, f.name, cnt, p[:n], off)
	}
	return n, err
}

func (f *errorFile) Sync() error {
	if err := f.fs.check(OpSync, f.name); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *errorFile) Size() (int64, error) { return f.inner.Size() }

func (f *errorFile) PunchHole(off, length int64) error {
	if err := f.fs.check(OpPunchHole, f.name); err != nil {
		return err
	}
	return f.inner.PunchHole(off, length)
}

func (f *errorFile) Close() error { return f.inner.Close() }
