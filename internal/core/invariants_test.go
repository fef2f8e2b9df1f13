package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/logrec"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// The barrierChecker is compiled unconditionally so its panic path is
// testable in the default build; the boltinvariants tag only controls
// whether Open wires it under every database (see invariants_tag_test.go).

func invariantEdit(physNum uint64) *manifest.VersionEdit {
	meta := &manifest.FileMeta{
		Num:      physNum,
		PhysNum:  physNum,
		Size:     128,
		Smallest: keys.MakeInternalKey(nil, []byte("a"), 1, keys.KindSet),
		Largest:  keys.MakeInternalKey(nil, []byte("z"), 1, keys.KindSet),
	}
	edit := &manifest.VersionEdit{}
	edit.AddFile(0, meta)
	return edit
}

// writeManifest creates MANIFEST-<num> on fs holding one edit record and
// returns the still-unsynced handle.
func writeManifest(t *testing.T, fs vfs.FS, num uint64, edit *manifest.VersionEdit) vfs.File {
	t.Helper()
	f, err := fs.Create(manifest.ManifestFileName(num))
	if err != nil {
		t.Fatal(err)
	}
	if err := logrec.NewWriter(f).WriteRecord(edit.Encode()); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBarrierCheckerPanicsOnUnsyncedTable(t *testing.T) {
	fs := vfs.NewSyncTrackerFS(vfs.NewMem(), barrierChecker{})

	tf, err := fs.Create(manifest.TableFileName(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tf.Write(make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	// Deliberately no tf.Sync(): the table's bytes are not durable.

	mf := writeManifest(t, fs, 1, invariantEdit(7))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MANIFEST synced over an unsynced table: expected the invariant panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, manifest.TableFileName(7)) || !strings.Contains(msg, "unsynced") {
			t.Fatalf("panic message does not name the dirty table: %q", msg)
		}
	}()
	_ = mf.Sync()
	t.Fatal("unreachable: Sync returned")
}

func TestBarrierCheckerAllowsSyncedTable(t *testing.T) {
	fs := vfs.NewSyncTrackerFS(vfs.NewMem(), barrierChecker{})

	tf, err := fs.Create(manifest.TableFileName(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tf.Write(make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if err := tf.Sync(); err != nil {
		t.Fatal(err)
	}

	mf := writeManifest(t, fs, 1, invariantEdit(7))
	if err := mf.Sync(); err != nil {
		t.Fatalf("sync after a paid data barrier must succeed: %v", err)
	}

	// A later write to another table re-dirties the namespace; a second
	// MANIFEST referencing it must trip even though the first sync passed.
	tf2, err := fs.Create(manifest.TableFileName(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tf2.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	mf2 := writeManifest(t, fs, 2, invariantEdit(9))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second MANIFEST over dirty table 9: expected panic")
			}
		}()
		_ = mf2.Sync()
	}()
}

func TestWrapInvariantFSMatchesBuildTag(t *testing.T) {
	base := vfs.NewMem()
	wrapped := wrapInvariantFS(base)
	if InvariantsEnabled && wrapped == vfs.FS(base) {
		t.Fatal("boltinvariants build: wrapInvariantFS returned the bare filesystem")
	}
	if !InvariantsEnabled && wrapped != vfs.FS(base) {
		t.Fatal("default build: wrapInvariantFS must be the identity")
	}
}

// gcAdvance is the after-flush entry of a value-GC pass over seg that
// committed into memtable generation gen.
func gcAdvance(seg, gen uint64, gcOffset int64, whole bool) afterFlush {
	return afterFlush{
		gen: gen,
		seg: manifest.VLogSegmentEdit{Num: seg, GCOffset: gcOffset},
		r:   reclaim{name: manifest.VLogFileName, num: seg, whole: whole},
	}
}

// TestGCAdvanceBeforeFlushPanics: logAndApplyLocked refuses an edit that
// logs a value-GC advance whose memtable generation no flush has covered —
// the pass's re-puts and the newer versions behind its liveness verdicts
// may still be unsynced — and one no pass recorded at all.
func TestGCAdvanceBeforeFlushPanics(t *testing.T) {
	db := openTestDB(t, vfs.NewMem(), vlogTestConfig())
	defer db.Close()
	db.mu.Lock()
	defer db.mu.Unlock()
	const seg = 99
	for _, tc := range []struct {
		name    string
		pending []afterFlush
		edit    func(*manifest.VersionEdit)
	}{
		{"unflushed-watermark", []afterFlush{gcAdvance(seg, db.walNum, 4096, false)},
			func(e *manifest.VersionEdit) {
				e.AddVLogSegment(manifest.VLogSegmentEdit{Num: seg, GCOffset: 4096})
			}},
		{"unflushed-delete", []afterFlush{gcAdvance(seg, db.walNum, 0, true)},
			func(e *manifest.VersionEdit) { e.DeleteVLogSegment(seg) }},
		{"no-pass", nil,
			func(e *manifest.VersionEdit) {
				e.AddVLogSegment(manifest.VLogSegmentEdit{Num: seg, GCOffset: 4096})
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db.afterFlush = tc.pending
			defer func() { db.afterFlush = nil }()
			edit := &manifest.VersionEdit{}
			tc.edit(edit)
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), "value GC of segment 99") {
					t.Fatalf("recovered %v, want the GC-advance invariant panic", r)
				}
			}()
			_ = db.logAndApplyLocked(edit) //boltvet:ignore errflow -- the call must panic, not return
			t.Fatal("unreachable: logAndApplyLocked returned")
		})
	}

	// The same advance is accepted once its generation is flushed — by the
	// edit itself, as flushLocked's edit does.
	db.afterFlush = []afterFlush{gcAdvance(seg, db.walNum, 4096, false)}
	defer func() { db.afterFlush = nil }()
	edit := &manifest.VersionEdit{}
	edit.SetLogNum(db.walNum + 1)
	edit.AddVLogSegment(manifest.VLogSegmentEdit{Num: seg, GCOffset: 4096})
	if err := db.checkGCAdvancesLocked(edit); err != nil {
		t.Fatalf("flush-covered advance rejected: %v", err)
	}
}
