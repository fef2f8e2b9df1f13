package vfs

import (
	"bytes"
	"testing"
)

// recordingChecker captures MANIFEST-like files (any name with prefix "M")
// and records every OnSync observation.
type recordingChecker struct {
	syncs []syncEvent
}

type syncEvent struct {
	name    string
	content []byte
	dirty   map[string]int64
}

func (c *recordingChecker) Capture(name string) bool { return name[0] == 'M' }

func (c *recordingChecker) OnSync(name string, content []byte, state func(string) SyncState) {
	c.syncs = append(c.syncs, syncEvent{
		name:    name,
		content: content,
		dirty: map[string]int64{
			"data":  state("data").Dirty(),
			"other": state("other").Dirty(),
		},
	})
}

func (c *recordingChecker) OnReclaim(string, int64, int64, []CapturedFile) {}

func TestSyncTrackerDirtyAccounting(t *testing.T) {
	chk := &recordingChecker{}
	fs := NewSyncTrackerFS(NewMem(), chk)

	data, err := fs.Create("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := data.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}

	m, err := fs.Create("M1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Write([]byte("edit-1")); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(chk.syncs) != 1 {
		t.Fatalf("OnSync calls = %d, want 1", len(chk.syncs))
	}
	ev := chk.syncs[0]
	if ev.name != "M1" || !bytes.Equal(ev.content, []byte("edit-1")) {
		t.Fatalf("OnSync saw (%q, %q)", ev.name, ev.content)
	}
	if ev.dirty["data"] != 100 || ev.dirty["other"] != 0 {
		t.Fatalf("dirty at sync = %v", ev.dirty)
	}

	// Syncing the data file settles it; the next MANIFEST sync sees zero.
	if err := data.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Write([]byte("+2")); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	ev = chk.syncs[1]
	if !bytes.Equal(ev.content, []byte("edit-1+2")) {
		t.Fatalf("captured content = %q, want full history", ev.content)
	}
	if ev.dirty["data"] != 0 {
		t.Fatalf("dirty[data] after sync = %d, want 0", ev.dirty["data"])
	}
}

func TestSyncTrackerCrossHandleAndRename(t *testing.T) {
	chk := &recordingChecker{}
	fs := NewSyncTrackerFS(NewMem(), chk)

	w, err := fs.Create("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Dirtiness survives Close and is keyed by name: a read handle's Sync
	// settles it (the Repair path does exactly this).
	r, err := fs.Open("data")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := fs.Create("other")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Write(make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("other", "data"); err != nil {
		t.Fatal(err)
	}

	m, err := fs.Create("M1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	ev := chk.syncs[0]
	if ev.dirty["data"] != 5 || ev.dirty["other"] != 0 {
		t.Fatalf("dirty after rename = %v, want data:5 other:0", ev.dirty)
	}

	// Remove drops tracking state entirely.
	if err := fs.Remove("data"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Write([]byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := chk.syncs[1].dirty["data"]; d != 0 {
		t.Fatalf("dirty after remove = %d, want 0", d)
	}
}

// TestSyncTrackerWriteDuringSync: bytes written while the inner Sync runs
// stay dirty after it returns — the sync credits only what was written
// before it began — and the next sync settles them.
func TestSyncTrackerWriteDuringSync(t *testing.T) {
	efs := NewErrorFS(NewMem())
	fs := NewSyncTrackerFS(efs, &recordingChecker{})
	f, err := fs.Create("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	efs.SetInjector(InjectorFunc(func(op Op, _ string, _ int64) error {
		if op == OpSync {
			close(entered)
			<-release
		}
		return nil
	}))
	done := make(chan error)
	go func() { done <- f.Sync() }()
	<-entered
	if _, err := f.Write(make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	efs.SetInjector(nil)
	tracker := fs.(*syncTrackerFS)
	if got := tracker.stateOf("data"); got != (SyncState{Tracked: true, Written: 150, Synced: 100}) {
		t.Fatalf("state after a sync with a write inside it = %+v, want 150 written, 100 synced", got)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := tracker.stateOf("data").Dirty(); d != 0 {
		t.Fatalf("dirty after a second sync = %d, want 0", d)
	}
	if s := tracker.stateOf("never-created"); s.Tracked || s.Dirty() != 0 {
		t.Fatalf("untracked file state = %+v", s)
	}
}
