package core

import (
	"fmt"

	"github.com/bolt-lsm/bolt/internal/logrec"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// barrierChecker is the runtime twin of the static barrierorder analyzer
// (internal/boltvet): where the analyzer proves the two-barrier ordering
// lexically, the checker enforces it on the actual I/O stream. Installed
// under a vfs.SyncTrackerFS (builds tagged boltinvariants wire it into
// Open; see invariants_enabled.go), it captures every MANIFEST's content
// and, on each MANIFEST sync, re-decodes all its version edits: if any
// edit validates a table whose physical file still has unsynced bytes, or
// records a value-log segment past its synced length (VLogSegmentEdit.Size
// is a durable lower bound), the MANIFEST barrier is being paid before the
// data barrier and the checker panics at the violating sync. Files the
// tracker did not create — a reopened engine's — count as durable.
//
// The full re-decode on every sync is sound and stateless: table files
// are immutable once their writer finishes, and synced lengths only grow,
// so a hit always implicates the newest records.
type barrierChecker struct{}

var _ vfs.SyncChecker = barrierChecker{}

func (barrierChecker) Capture(name string) bool {
	kind, _, ok := manifest.ParseFileName(name)
	return ok && kind == manifest.KindManifest
}

func (barrierChecker) OnSync(name string, content []byte, state func(name string) vfs.SyncState) {
	r := logrec.NewReader(content)
	for {
		rec, err := r.Next()
		if err != nil {
			// io.EOF ends the walk; a torn tail cannot exist here (records
			// are written whole before Sync), but stay tolerant either way:
			// the checker's job is the barrier order, not MANIFEST
			// well-formedness.
			return
		}
		edit, err := manifest.DecodeEdit(rec)
		if err != nil {
			continue
		}
		for _, a := range edit.Added {
			table := manifest.TableFileName(a.Meta.PhysNum)
			if d := state(table).Dirty(); d > 0 {
				panic(fmt.Sprintf(
					"boltinvariants: %s synced while referenced table %s has %d unsynced byte(s); "+
						"the data barrier must precede the MANIFEST barrier",
					name, table, d))
			}
		}
		for _, s := range edit.VLogSegments {
			seg := manifest.VLogFileName(s.Num)
			if st := state(seg); st.Tracked && s.Size > st.Synced {
				panic(fmt.Sprintf(
					"boltinvariants: %s synced while it records value-log segment %s at %d byte(s), "+
						"past the %d synced; the data barrier must precede the MANIFEST barrier",
					name, seg, s.Size, st.Synced))
			}
		}
	}
}

// checkGCAdvancesLocked is the runtime check of value-GC rule 2
// (vloggc.go): every GC advance edit logs — a raised watermark or a
// segment deletion — must be a pending advance whose memtable generation
// is flushed by edit or an earlier edit, i.e. lies below the log number
// edit sets or the version set already holds.
func (db *DB) checkGCAdvancesLocked(edit *manifest.VersionEdit) error {
	flushed := db.vs.LogNum()
	if edit.LogNum != nil {
		flushed = max(flushed, *edit.LogNum)
	}
	check := func(seg uint64, full bool, gcOffset int64) error {
		for _, a := range db.afterFlush {
			if !a.isGCAdvance() || a.seg.Num != seg || a.r.whole != full || (!full && a.seg.GCOffset != gcOffset) {
				continue
			}
			if a.gen >= flushed {
				return fmt.Errorf("boltinvariants: edit logs value GC of segment %d from memtable generation %d, "+
					"which no flush has covered (log number %d)", seg, a.gen, flushed)
			}
			return nil
		}
		return fmt.Errorf("boltinvariants: edit logs value GC of segment %d that no pending pass recorded", seg)
	}
	for _, s := range edit.VLogSegments {
		if s.GCOffset > 0 {
			if err := check(s.Num, false, s.GCOffset); err != nil {
				return err
			}
		}
	}
	for _, seg := range edit.VLogDeleted {
		if err := check(seg, true, 0); err != nil {
			return err
		}
	}
	return nil
}
