package vfs

import "sync"

// SyncChecker observes sync barriers on a SyncTrackerFS. The engine's
// build-tag-gated invariant mode (see internal/core) installs a checker
// that decodes the MANIFEST on every sync and panics if it validates a
// table file that still has unsynced bytes — the runtime twin of the
// static barrierorder analyzer in internal/boltvet.
type SyncChecker interface {
	// Capture reports whether the tracker should retain the named file's
	// full content and report its syncs to OnSync. Called once per Create.
	Capture(name string) bool
	// OnSync runs when a captured file is synced, before the sync reaches
	// the underlying filesystem, so a panic here fails the process while
	// the violating barrier is still in flight. content is the file's
	// complete content written through this tracker; dirty reports the
	// unsynced byte count of any file by name and is valid only until
	// OnSync returns. OnSync must not call back into the filesystem.
	OnSync(name string, content []byte, dirty func(name string) int64)
}

// NewSyncTrackerFS wraps inner so that every file's unsynced byte count is
// tracked by name, and syncs of checker-selected files are reported to the
// checker. Tracking spans handles: bytes written through one handle stay
// dirty until some handle of the same name syncs. PunchHole is deliberately
// not counted — hole punching is barrier-free by design.
func NewSyncTrackerFS(inner FS, checker SyncChecker) FS {
	return &syncTrackerFS{
		inner:   inner,
		checker: checker,
		dirty:   make(map[string]int64),
		content: make(map[string][]byte),
	}
}

type syncTrackerFS struct {
	inner   FS          //boltvet:guardedby none -- immutable after NewSyncTrackerFS
	checker SyncChecker //boltvet:guardedby none -- immutable after NewSyncTrackerFS

	mu      sync.Mutex
	dirty   map[string]int64  //boltvet:guardedby mu -- name -> unsynced bytes
	content map[string][]byte //boltvet:guardedby mu -- captured names -> full content
}

var _ FS = (*syncTrackerFS)(nil)

func (t *syncTrackerFS) Create(name string) (File, error) {
	f, err := t.inner.Create(name)
	if err != nil {
		return nil, err
	}
	captured := t.checker.Capture(name)
	t.mu.Lock()
	t.dirty[name] = 0
	if captured {
		t.content[name] = nil // Create truncates
	} else {
		delete(t.content, name)
	}
	t.mu.Unlock()
	return &syncTrackerFile{fs: t, name: name, inner: f, captured: captured}, nil
}

func (t *syncTrackerFS) Open(name string) (File, error) {
	f, err := t.inner.Open(name)
	if err != nil {
		return nil, err
	}
	// Read handles still route Sync through the tracker: syncing any
	// handle of a name settles that name's dirty bytes (Repair reopens
	// salvaged files just to sync them).
	t.mu.Lock()
	_, captured := t.content[name]
	t.mu.Unlock()
	return &syncTrackerFile{fs: t, name: name, inner: f, captured: captured}, nil
}

func (t *syncTrackerFS) Remove(name string) error {
	if err := t.inner.Remove(name); err != nil {
		return err
	}
	t.mu.Lock()
	delete(t.dirty, name)
	delete(t.content, name)
	t.mu.Unlock()
	return nil
}

func (t *syncTrackerFS) Rename(oldname, newname string) error {
	if err := t.inner.Rename(oldname, newname); err != nil {
		return err
	}
	t.mu.Lock()
	if d, ok := t.dirty[oldname]; ok {
		t.dirty[newname] = d
		delete(t.dirty, oldname)
	}
	if c, ok := t.content[oldname]; ok {
		t.content[newname] = c
		delete(t.content, oldname)
	} else {
		delete(t.content, newname)
	}
	t.mu.Unlock()
	return nil
}

func (t *syncTrackerFS) List() ([]string, error)         { return t.inner.List() }
func (t *syncTrackerFS) Stat(name string) (int64, error) { return t.inner.Stat(name) }
func (t *syncTrackerFS) SyncDir() error                  { return t.inner.SyncDir() }

func (t *syncTrackerFS) dirtyBytes(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dirty[name]
}

type syncTrackerFile struct {
	fs       *syncTrackerFS
	name     string
	inner    File
	captured bool
}

var _ File = (*syncTrackerFile)(nil)

func (f *syncTrackerFile) Write(p []byte) (int, error) {
	n, err := f.inner.Write(p)
	if n > 0 {
		t := f.fs
		t.mu.Lock()
		t.dirty[f.name] += int64(n)
		if f.captured {
			t.content[f.name] = append(t.content[f.name], p[:n]...)
		}
		t.mu.Unlock()
	}
	return n, err
}

func (f *syncTrackerFile) Sync() error {
	t := f.fs
	if f.captured {
		t.mu.Lock()
		content := append([]byte(nil), t.content[f.name]...)
		t.mu.Unlock()
		// The checker runs outside the tracker lock (its dirty callback
		// re-enters it) and before the inner Sync, so an invariant panic
		// reports the barrier that was about to be paid, not one already
		// durable.
		t.checker.OnSync(f.name, content, t.dirtyBytes)
	}
	if err := f.inner.Sync(); err != nil {
		return err
	}
	t.mu.Lock()
	t.dirty[f.name] = 0
	t.mu.Unlock()
	return nil
}

func (f *syncTrackerFile) ReadAt(p []byte, off int64) (int, error) { return f.inner.ReadAt(p, off) }
func (f *syncTrackerFile) Size() (int64, error)                    { return f.inner.Size() }
func (f *syncTrackerFile) PunchHole(off, length int64) error       { return f.inner.PunchHole(off, length) }
func (f *syncTrackerFile) Close() error                            { return f.inner.Close() }
