package core

import (
	"fmt"
	"slices"

	"github.com/bolt-lsm/bolt/internal/logrec"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// barrierChecker is the runtime twin of the static barrierorder analyzer
// (internal/boltvet): where the analyzer proves the two-barrier ordering
// lexically, the checker enforces it on the actual I/O stream. Installed
// under a vfs.SyncTrackerFS (builds tagged boltinvariants wire it into
// Open; see invariants_enabled.go), it captures every MANIFEST's content
// and enforces three rules:
//
//   - On each MANIFEST sync it re-decodes all the version edits: if any
//     validates a table whose physical file still has unsynced bytes, or
//     records a value-log segment past its synced length
//     (VLogSegmentEdit.Size is a durable lower bound), the MANIFEST
//     barrier is being paid before the data barrier.
//   - Only a move-only edit (manifest.VersionEdit.MoveOnly) may commit
//     without the MANIFEST barrier. A sync covers the record whose commit
//     pays it, the newest; every older record in the unsynced tail it
//     covers must be a move.
//   - A table is reclaimed (its file removed, or its range punched) only
//     after the edit that deleted it is synced: no record in the current
//     MANIFEST's unsynced tail may delete, rather than move, a table
//     stored in the reclaimed range.
//
// The checker panics at the violating sync or reclaim. Files the tracker
// did not create — a reopened engine's — count as durable.
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
	recs, tail := manifestRecords(content, state(name).Synced)
	for i, rec := range recs {
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
		if i >= tail && i < len(recs)-1 && !edit.MoveOnly() {
			panic(fmt.Sprintf(
				"boltinvariants: %s record %d was left unsynced but is not move-only; "+
					"only a move may commit without the MANIFEST barrier",
				name, i))
		}
	}
}

func (barrierChecker) OnReclaim(name string, off, length int64, captured []vfs.CapturedFile) {
	kind, phys, ok := manifest.ParseFileName(name)
	if !ok || kind != manifest.KindTable {
		return
	}
	// The engine commits only to its newest MANIFEST; an older one is
	// superseded by the synced snapshot that started the newer.
	var cur *vfs.CapturedFile
	var curNum uint64
	for i := range captured {
		if _, num, _ := manifest.ParseFileName(captured[i].Name); cur == nil || num > curNum {
			cur, curNum = &captured[i], num
		}
	}
	if cur == nil {
		return
	}
	recs, tail := manifestRecords(cur.Content, cur.Synced)
	deleted := make(map[uint64]bool) // by the unsynced tail, not moved
	for _, rec := range recs[tail:] {
		if edit, err := manifest.DecodeEdit(rec); err == nil {
			for _, d := range edit.Deleted {
				if !slices.ContainsFunc(edit.Added, func(a manifest.AddedFile) bool { return a.Meta.Num == d.Num }) {
					deleted[d.Num] = true
				}
			}
		}
	}
	if len(deleted) == 0 {
		return
	}
	for _, rec := range recs {
		edit, err := manifest.DecodeEdit(rec)
		if err != nil {
			continue
		}
		for _, a := range edit.Added {
			if f := a.Meta; deleted[f.Num] && f.PhysNum == phys && f.Offset < off+length && off < f.Offset+f.Size {
				panic(fmt.Sprintf(
					"boltinvariants: %s reclaimed while %s's unsynced tail deletes table %d stored in it; "+
						"a reclaim must follow its edit's MANIFEST barrier",
					name, cur.Name, f.Num))
			}
		}
	}
}

// manifestRecords splits a MANIFEST's content into its records and
// returns with them the index of the first record the synced prefix does
// not hold whole. The walk stops at the first torn or corrupt fragment:
// the checker's job is the barrier order, not MANIFEST well-formedness.
func manifestRecords(content []byte, synced int64) (recs [][]byte, tail int) {
	r := logrec.NewReader(content)
	for {
		rec, err := r.Next()
		if err != nil {
			break
		}
		recs = append(recs, rec)
	}
	r = logrec.NewReader(content[:min(synced, int64(len(content)))])
	for tail < len(recs) {
		if _, err := r.Next(); err != nil {
			break
		}
		tail++
	}
	return recs, tail
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
