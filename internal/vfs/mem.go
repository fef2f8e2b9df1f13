package vfs

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/bolt-lsm/bolt/internal/simdisk"
)

// MemFS is an in-memory filesystem with durability tracking and an optional
// simulated device for timing. It is safe for concurrent use.
//
// Durability model: Write appends to a volatile buffer; Sync copies the
// buffer length into the durable watermark and (if a device is attached)
// pays the barrier cost of the dirty bytes. Directory operations (create,
// remove, rename) are volatile until SyncDir. CrashClone materializes the
// filesystem state that would survive a power failure: only durable
// directory entries, truncated to their durable length — plus files whose
// removal had not yet become durable, which reappear with their last synced
// contents (real filesystems do this; LevelDB's open path must tolerate it).
type MemFS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	durable map[string]bool     // directory entry is crash-durable
	removed map[string]*memFile // removed, but removal not yet durable

	device *simdisk.Device // nil means no timing model

	// ChargeReads controls whether ReadAt operations are charged to the
	// device. The engine models a memory-constrained host (as the paper
	// does by booting with mem=8G), so device reads are charged by default
	// when a device is attached.
	ChargeReads bool
}

var _ FS = (*MemFS)(nil)

// NewMem returns an empty in-memory filesystem with no timing model.
func NewMem() *MemFS {
	return &MemFS{
		files:   make(map[string]*memFile),
		durable: make(map[string]bool),
		removed: make(map[string]*memFile),
	}
}

// NewSim returns an in-memory filesystem whose Sync/ReadAt/metadata
// operations are charged to the given simulated device.
func NewSim(device *simdisk.Device) *MemFS {
	fs := NewMem()
	fs.device = device
	fs.ChargeReads = true
	return fs
}

// Device returns the attached simulated device, or nil.
func (fs *MemFS) Device() *simdisk.Device { return fs.device }

type memFile struct {
	mu        sync.RWMutex
	name      string
	data      []byte
	syncedLen int64 // durable watermark
	allocated int64 // bytes not punched out (space accounting)
	holes     []hole
}

type hole struct{ off, end int64 }

// memHandle is one open handle onto a memFile.
type memHandle struct {
	fs     *MemFS
	f      *memFile
	closed atomic.Bool
}

var _ File = (*memHandle)(nil)

func (fs *MemFS) metadataOp() {
	if fs.device != nil {
		fs.device.MetadataOp()
	}
}

// Create creates or truncates name.
func (fs *MemFS) Create(name string) (File, error) {
	fs.metadataOp()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := &memFile{name: name}
	fs.files[name] = f
	fs.durable[name] = false
	delete(fs.removed, name)
	return &memHandle{fs: fs, f: f}, nil
}

// Open opens name for reading (the handle also accepts writes, which the
// engine never issues on opened files).
func (fs *MemFS) Open(name string) (File, error) {
	fs.metadataOp()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("open %q: %w", name, ErrNotFound)
	}
	return &memHandle{fs: fs, f: f}, nil
}

// Remove deletes name. The removal is volatile until SyncDir.
func (fs *MemFS) Remove(name string) error {
	fs.metadataOp()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("remove %q: %w", name, ErrNotFound)
	}
	delete(fs.files, name)
	if fs.durable[name] {
		// The durable image still has this entry until SyncDir.
		fs.removed[name] = f
	}
	delete(fs.durable, name)
	return nil
}

// Rename renames oldname to newname, replacing any existing target.
func (fs *MemFS) Rename(oldname, newname string) error {
	fs.metadataOp()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[oldname]
	if !ok {
		return fmt.Errorf("rename %q: %w", oldname, ErrNotFound)
	}
	delete(fs.files, oldname)
	if fs.durable[oldname] {
		fs.removed[oldname] = f
	}
	delete(fs.durable, oldname)
	fs.files[newname] = f
	fs.durable[newname] = false
	delete(fs.removed, newname)
	f.mu.Lock()
	f.name = newname
	f.mu.Unlock()
	return nil
}

// List returns all file names in no particular order.
func (fs *MemFS) List() ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		names = append(names, name)
	}
	return names, nil
}

// Stat returns the size of name.
func (fs *MemFS) Stat(name string) (int64, error) {
	fs.mu.Lock()
	f, ok := fs.files[name]
	fs.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("stat %q: %w", name, ErrNotFound)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int64(len(f.data)), nil
}

// SyncDir makes all directory operations performed so far durable.
func (fs *MemFS) SyncDir() error {
	fs.metadataOp()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for name := range fs.files {
		fs.durable[name] = true
	}
	fs.removed = make(map[string]*memFile)
	return nil
}

// CrashClone returns a new filesystem holding exactly the state that would
// survive a crash at this instant. The original filesystem is unchanged.
func (fs *MemFS) CrashClone() *MemFS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	clone := NewMem()
	clone.device = fs.device
	clone.ChargeReads = fs.ChargeReads
	restore := func(name string, f *memFile) {
		f.mu.RLock()
		nf := &memFile{name: name}
		nf.data = append([]byte(nil), f.data[:f.syncedLen]...)
		nf.syncedLen = f.syncedLen
		nf.allocated = int64(len(nf.data))
		for _, h := range f.holes {
			if h.off < nf.syncedLen {
				end := h.end
				if end > nf.syncedLen {
					end = nf.syncedLen
				}
				nf.allocated -= end - h.off
				nf.holes = append(nf.holes, hole{h.off, end})
			}
		}
		f.mu.RUnlock()
		clone.files[name] = nf
		clone.durable[name] = true
	}
	for name, f := range fs.files {
		if fs.durable[name] {
			restore(name, f)
		}
	}
	for name, f := range fs.removed {
		// A resurrected removal must not clobber a durable replacement
		// created under the same name after the removal.
		if _, exists := clone.files[name]; !exists {
			restore(name, f)
		}
	}
	return clone
}

// TornCrashClone is CrashClone plus torn writes: for every file whose
// directory entry survives, a random prefix of its unsynced tail reaches
// the image, and with probability 1/2 the final bytes of that prefix are
// replaced with garbage — the states a real disk exposes when power fails
// mid-write. Synced bytes are never torn; a hole punched in an unsynced
// tail reaches the image as zeros. rng drives all random choices; files
// are taken in sorted-name order, so a seeded rng gives a deterministic
// image.
func (fs *MemFS) TornCrashClone(rng *rand.Rand) *MemFS {
	clone := fs.CrashClone()
	fs.mu.Lock()
	tails := make(map[string][]byte)
	var names []string
	for name, f := range fs.files {
		f.mu.RLock()
		if tail := f.data[f.syncedLen:]; len(tail) > 0 {
			tails[name] = append([]byte(nil), tail...)
			names = append(names, name)
		}
		f.mu.RUnlock()
	}
	fs.mu.Unlock()
	sort.Strings(names)

	for _, name := range names {
		nf, ok := clone.files[name]
		if !ok {
			continue // directory entry was not durable: nothing survives
		}
		tail := tails[name]
		k := rng.Intn(len(tail) + 1) // torn bytes that reached the platter
		frag := tail[:k]
		if k > 0 && rng.Intn(2) == 0 {
			g := 1 + rng.Intn(min(k, 64))
			for i := k - g; i < k; i++ {
				frag[i] = byte(rng.Intn(256))
			}
		}
		nf.data = append(nf.data, frag...)
		nf.allocated += int64(k)
	}
	return clone
}

// CorruptFileRange flips every bit in [off, off+length) of name's at-rest
// contents — rotted sectors in a crash or scrub image. The range is clamped
// to the file's size; corrupting an entirely out-of-range span is a no-op.
// Durability watermarks are untouched: rot does not alter what was synced,
// only what the sectors now hold.
func (fs *MemFS) CorruptFileRange(name string, off, length int64) error {
	fs.mu.Lock()
	f, ok := fs.files[name]
	fs.mu.Unlock()
	if !ok {
		return fmt.Errorf("corrupt %q: %w", name, ErrNotFound)
	}
	if off < 0 || length <= 0 {
		return fmt.Errorf("corrupt %q: invalid range [%d,+%d)", name, off, length)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	end := off + length
	if end > int64(len(f.data)) {
		end = int64(len(f.data))
	}
	for i := off; i < end; i++ {
		f.data[i] ^= 0xff
	}
	return nil
}

// AllocatedBytes returns the total allocated (non-hole) bytes across all
// files — the space accounting that hole punching reduces.
func (fs *MemFS) AllocatedBytes() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var total int64
	for _, f := range fs.files {
		f.mu.RLock()
		total += f.allocated
		f.mu.RUnlock()
	}
	return total
}

func (h *memHandle) Write(p []byte) (int, error) {
	if h.closed.Load() {
		return 0, ErrClosed
	}
	h.f.mu.Lock()
	h.f.data = append(h.f.data, p...)
	h.f.allocated += int64(len(p))
	h.f.mu.Unlock()
	return len(p), nil
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	if h.closed.Load() {
		return 0, ErrClosed
	}
	h.f.mu.RLock()
	size := int64(len(h.f.data))
	var n int
	if off < size {
		n = copy(p, h.f.data[off:])
	}
	h.f.mu.RUnlock()
	if h.fs.ChargeReads && h.fs.device != nil && n > 0 {
		h.fs.device.Read(int64(n))
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Sync() error {
	if h.closed.Load() {
		return ErrClosed
	}
	h.f.mu.Lock()
	dirty := int64(len(h.f.data)) - h.f.syncedLen
	h.f.syncedLen = int64(len(h.f.data))
	h.f.mu.Unlock()
	if dirty < 0 {
		dirty = 0
	}
	// Journaling filesystems in ordered mode (ext4, xfs) commit a newly
	// created file's directory entry as part of the file's first fsync;
	// LevelDB's commit protocol (sync table bytes, then sync MANIFEST,
	// no per-file directory fsync) depends on this, so the crash model
	// matches it: syncing a file makes its directory entry durable.
	h.fs.mu.Lock()
	h.f.mu.RLock()
	name := h.f.name
	h.f.mu.RUnlock()
	if cur, ok := h.fs.files[name]; ok && cur == h.f {
		h.fs.durable[name] = true
		delete(h.fs.removed, name)
	}
	h.fs.mu.Unlock()
	if h.fs.device != nil {
		h.fs.device.Barrier(dirty)
	}
	return nil
}

func (h *memHandle) Size() (int64, error) {
	if h.closed.Load() {
		return 0, ErrClosed
	}
	h.f.mu.RLock()
	defer h.f.mu.RUnlock()
	return int64(len(h.f.data)), nil
}

// PunchHole zeroes [off, off+length) and releases the space. No barrier is
// charged: hole punching is a metadata operation.
func (h *memHandle) PunchHole(off, length int64) error {
	if h.closed.Load() {
		return ErrClosed
	}
	if off < 0 || length <= 0 {
		return fmt.Errorf("punch hole %q: invalid range [%d,+%d)", h.f.name, off, length)
	}
	h.fs.metadataOp()
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	end := off + length
	if end > int64(len(h.f.data)) {
		end = int64(len(h.f.data))
	}
	if off >= end {
		return nil
	}
	for i := off; i < end; i++ {
		h.f.data[i] = 0
	}
	h.f.allocated -= end - off
	h.f.holes = append(h.f.holes, hole{off, end})
	return nil
}

func (h *memHandle) Close() error {
	if h.closed.Swap(true) {
		return ErrClosed
	}
	return nil
}
