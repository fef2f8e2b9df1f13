package vfs

import (
	"math"
	"sync"
)

// SyncChecker observes sync barriers and reclaims on a SyncTrackerFS. The
// engine's build-tag-gated invariant mode (see internal/core) installs a
// checker that decodes the MANIFEST on every sync and panics if it
// validates a table file that still has unsynced bytes, or records a
// value-log segment past its synced length — the runtime twin of the
// static barrierorder analyzer in internal/boltvet — and on every reclaim
// panics if the edit that deleted the reclaimed table is not yet synced.
type SyncChecker interface {
	// Capture reports whether the tracker should retain the named file's
	// full content and report its syncs to OnSync. Called once per Create.
	Capture(name string) bool
	// OnSync runs when a captured file is synced, before the sync reaches
	// the underlying filesystem, so a panic here fails the process while
	// the violating barrier is still in flight. content is the file's
	// complete content written through this tracker; state reports the
	// durability of any file by name and is valid only until OnSync
	// returns. OnSync must not call back into the filesystem.
	OnSync(name string, content []byte, state func(name string) SyncState)
	// OnReclaim runs before name is removed (off 0, length math.MaxInt64)
	// or the range [off, off+length) of it is punched, so a panic here
	// fails the process while the reclaim is still in flight. captured
	// holds every captured file's content and synced length; OnReclaim
	// must not call back into the filesystem.
	OnReclaim(name string, off, length int64, captured []CapturedFile)
}

// CapturedFile is a captured file's content, as written through the
// tracker, and the length of its prefix that a successful sync covered.
type CapturedFile struct {
	Name    string
	Content []byte
	Synced  int64
}

// SyncState is what a SyncTrackerFS knows of one file's durability. Files
// are written sequentially, so the synced bytes are a prefix.
type SyncState struct {
	// Tracked is false for a file the tracker has neither created nor
	// written; its counts are zero.
	Tracked bool
	// Written counts the bytes written through the tracker since the
	// file's Create, and Synced those written before the last successful
	// sync of any of its handles began: a sync covers no byte written
	// while it runs.
	Written, Synced int64
}

// Dirty returns the bytes no successful sync has covered.
func (s SyncState) Dirty() int64 { return s.Written - s.Synced }

// NewSyncTrackerFS wraps inner so that every file's SyncState is tracked
// by name, and syncs of checker-selected files are reported to the
// checker. Tracking spans handles: bytes written through one handle stay
// dirty until some handle of the same name syncs. Removes and hole punches
// are reported to the checker's OnReclaim but change no file's counts —
// hole punching is barrier-free by design.
func NewSyncTrackerFS(inner FS, checker SyncChecker) FS {
	return &syncTrackerFS{
		inner:   inner,
		checker: checker,
		state:   make(map[string]SyncState),
		content: make(map[string][]byte),
	}
}

type syncTrackerFS struct {
	inner   FS          //boltvet:guardedby none -- immutable after NewSyncTrackerFS
	checker SyncChecker //boltvet:guardedby none -- immutable after NewSyncTrackerFS

	mu      sync.Mutex
	state   map[string]SyncState //boltvet:guardedby mu
	content map[string][]byte    //boltvet:guardedby mu -- captured names -> full content
}

var (
	_ FS         = (*syncTrackerFS)(nil)
	_ LogCreator = (*syncTrackerFS)(nil)
)

func (t *syncTrackerFS) Create(name string) (File, error) {
	return t.create(name, t.inner.Create)
}

// CreateLog forwards to the inner filesystem's log file; its writes and
// syncs are tracked like any created file's.
func (t *syncTrackerFS) CreateLog(name string) (File, error) {
	return t.create(name, func(name string) (File, error) { return CreateLog(t.inner, name) })
}

func (t *syncTrackerFS) create(name string, create func(string) (File, error)) (File, error) {
	f, err := create(name)
	if err != nil {
		return nil, err
	}
	captured := t.checker.Capture(name)
	t.mu.Lock()
	t.state[name] = SyncState{Tracked: true}
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
	// handle of a name settles that name's written bytes (Repair reopens
	// salvaged files just to sync them).
	t.mu.Lock()
	_, captured := t.content[name]
	t.mu.Unlock()
	return &syncTrackerFile{fs: t, name: name, inner: f, captured: captured}, nil
}

func (t *syncTrackerFS) Remove(name string) error {
	t.checker.OnReclaim(name, 0, math.MaxInt64, t.captured())
	if err := t.inner.Remove(name); err != nil {
		return err
	}
	t.mu.Lock()
	delete(t.state, name)
	delete(t.content, name)
	t.mu.Unlock()
	return nil
}

func (t *syncTrackerFS) Rename(oldname, newname string) error {
	if err := t.inner.Rename(oldname, newname); err != nil {
		return err
	}
	t.mu.Lock()
	if s, ok := t.state[oldname]; ok {
		t.state[newname] = s
		delete(t.state, oldname)
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

func (t *syncTrackerFS) stateOf(name string) SyncState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state[name]
}

// captured lists the captured files. The contents are not copied: a
// captured file's bytes are only ever appended (past every length handed
// out) or replaced by a re-Create, never rewritten in place.
func (t *syncTrackerFS) captured() []CapturedFile {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]CapturedFile, 0, len(t.content))
	for name, c := range t.content {
		out = append(out, CapturedFile{Name: name, Content: c, Synced: t.state[name].Synced})
	}
	return out
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
		s := t.state[f.name]
		s.Tracked = true
		s.Written += int64(n)
		t.state[f.name] = s
		if f.captured {
			t.content[f.name] = append(t.content[f.name], p[:n]...)
		}
		t.mu.Unlock()
	}
	return n, err
}

func (f *syncTrackerFile) Sync() error {
	t := f.fs
	t.mu.Lock()
	begun := t.state[f.name].Written
	var content []byte
	if f.captured {
		content = append(content, t.content[f.name]...)
	}
	t.mu.Unlock()
	if f.captured {
		// The checker runs outside the tracker lock (its state callback
		// re-enters it) and before the inner Sync, so an invariant panic
		// reports the barrier that was about to be paid, not one already
		// durable.
		t.checker.OnSync(f.name, content, t.stateOf)
	}
	if err := f.inner.Sync(); err != nil {
		return err
	}
	// Bytes written while the inner sync ran stay dirty: it need not have
	// covered them. A file re-created meanwhile keeps only its own bytes.
	t.mu.Lock()
	if s, ok := t.state[f.name]; ok && s.Synced < begun {
		s.Synced = min(begun, s.Written)
		t.state[f.name] = s
	}
	t.mu.Unlock()
	return nil
}

func (f *syncTrackerFile) ReadAt(p []byte, off int64) (int, error) { return f.inner.ReadAt(p, off) }
func (f *syncTrackerFile) Size() (int64, error)                    { return f.inner.Size() }
func (f *syncTrackerFile) Close() error                            { return f.inner.Close() }

func (f *syncTrackerFile) PunchHole(off, length int64) error {
	f.fs.checker.OnReclaim(f.name, off, length, f.fs.captured())
	return f.inner.PunchHole(off, length)
}
