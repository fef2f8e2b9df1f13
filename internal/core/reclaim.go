package core

import (
	"cmp"
	"errors"
	"math"
	"slices"

	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/vfs"
	"github.com/bolt-lsm/bolt/internal/vlog"
	"github.com/bolt-lsm/bolt/internal/wal"
)

// afterFlush is one entry of the after-flush list, work a flush must log
// first: a retired value-log segment's size record, a value-GC advance
// (vloggc.go, rule 2), the retired WAL. gen is the WAL number of the
// memtable generation it waits for (0, a size record, waits for none);
// seg, if Num is set, is the segment edit to log; w, set on a size record,
// is the retired segment's writer, which the flush syncs, records at its
// synced length and closes; walW, set on a retired WAL's entry until the
// flush of its memtable takes it, is that WAL's writer; r, if its num is
// set, is the reclaim the logged edit licenses. An entry with seg and r is
// a value-GC advance.
type afterFlush struct {
	gen  uint64
	seg  manifest.VLogSegmentEdit
	w    *vlog.Writer
	walW *wal.Writer
	r    reclaim
}

func (a afterFlush) isGCAdvance() bool { return a.seg.Num != 0 && a.r.num != 0 }

// addTo logs a's segment edit, if any: a fully collected segment is deleted.
func (a afterFlush) addTo(edit *manifest.VersionEdit) {
	switch {
	case a.seg.Num == 0:
	case a.r.whole:
		edit.DeleteVLogSegment(a.seg.Num)
	case a.w != nil:
		edit.AddVLogSegment(manifest.VLogSegmentEdit{Num: a.seg.Num, Size: a.w.SyncedSize()})
	default:
		edit.AddVLogSegment(a.seg)
	}
}

// reclaim is one entry of the reclaim queue: a deleted logical table, or
// another file (name, num) — a value-log segment or a WAL — whose ranges
// or whole file are dead. version is the ID of the version whose edit
// deleted it (a compaction's, or the flush's that logged a value-GC
// advance): only readers pinning older versions can reach it. seq, set
// for a value-GC advance, is the visible sequence after the re-put commit,
// which holds it for older snapshots, which pin no version.
type reclaim struct {
	table   *manifest.FileMeta
	name    func(uint64) string
	num     uint64
	ranges  []deadRange
	whole   bool
	version uint64
	seq     keys.Seq
}

// fileOp is one file operation of a reclaim pass: unlink the file, or
// punch one dead range of it. File numbers are unique across kinds.
type fileOp struct {
	name   func(uint64) string
	num    uint64
	unlink bool
	r      deadRange
}

// takeReclaimsLocked removes the ready entries from the reclaim queue and
// returns their file operations for execReclaims; the job envelope
// (runJobLocked), DBIter.Close, Snapshot.Release and Close run the pair. An entry is ready once no live version predates its version
// and no snapshot its seq; closing opens every gate: Close has drained
// every reader. A taken table leaves the table cache and physRefs under
// mu; its physical file is unlinked once no logical table references it,
// else its range is punched. Nothing is allocated when nothing is ready.
func (db *DB) takeReclaimsLocked(closing bool) []fileOp {
	if len(db.reclaims) == 0 {
		return nil
	}
	oldest, minSeq := uint64(math.MaxUint64), keys.Seq(math.MaxUint64)
	if !closing {
		oldest, minSeq = db.vs.OldestLiveID(), db.smallestSnapshotLocked()
	}
	var ops []fileOp
	keep := db.reclaims[:0]
	for _, r := range db.reclaims {
		f := r.table
		switch {
		case oldest < r.version || minSeq < r.seq:
			keep = append(keep, r)
		case f == nil:
			if r.whole {
				ops = append(ops, fileOp{name: r.name, num: r.num, unlink: true})
			}
			for _, dr := range r.ranges {
				ops = append(ops, fileOp{name: r.name, num: r.num, r: dr})
			}
		default:
			db.tableCache.Evict(f.Num)
			db.met.TablesDeleted.Add(1)
			if db.physRefs[f.PhysNum]--; db.physRefs[f.PhysNum] <= 0 {
				delete(db.physRefs, f.PhysNum)
				if db.fdCache != nil {
					db.fdCache.Evict(f.PhysNum)
				}
				delete(db.deadBytes, f.PhysNum)
				ops = append(ops, fileOp{name: manifest.TableFileName, num: f.PhysNum, unlink: true})
			} else {
				ops = append(ops, fileOp{name: manifest.TableFileName, num: f.PhysNum, r: deadRange{f.Offset, f.Size}})
			}
		}
	}
	clear(db.reclaims[len(keep):]) // drop the taken tables' metadata
	db.reclaims = keep
	return ops
}

// execReclaims runs one reclaim pass, grouped by file. Called without mu.
// A file the pass unlinks loses its ranges with it; every other file is
// opened once. A table range the backend cannot punch is counted in
// deadBytes; a value-log one needs no record, since the GC watermark
// already counts it collected.
func (db *DB) execReclaims(ops []fileOp) {
	slices.SortFunc(ops, func(a, b fileOp) int {
		return cmp.Or(cmp.Compare(a.num, b.num), cmp.Compare(a.r.off, b.r.off))
	})
	var fallbacks []fileOp
	for len(ops) > 0 {
		n := 1
		for n < len(ops) && ops[n].num == ops[0].num {
			n++
		}
		if slices.ContainsFunc(ops[:n], func(op fileOp) bool { return op.unlink }) {
			db.vlogFDs.Evict(ops[0].num) // a no-op unless a segment
			_ = db.fs.Remove(ops[0].name(ops[0].num))
		} else {
			fallbacks = append(fallbacks, db.punchHoles(ops[:n])...)
		}
		ops = ops[n:]
	}
	if len(fallbacks) == 0 {
		return
	}
	db.mu.Lock()
	for _, op := range fallbacks {
		// Record the space debt of live tables only: a table file removed
		// while mu was released took its dead ranges with it.
		if _, live := db.physRefs[op.num]; live {
			db.deadBytes[op.num] += op.r.size
		}
	}
	db.mu.Unlock()
}

// punchHoles reclaims the dead ranges of one file (sorted by offset) by
// hole punching, barrier-free and best-effort, and returns the runs the
// backend could not punch. Called without mu. Each run of adjacent ranges
// is one PunchHole call and one hole-punch event (Inputs: the ranges it
// covers); the counters count ranges. A backend that cannot punch
// (vfs.ErrPunchHoleUnsupported) or holds the file read-only still reads
// the run back correctly, so it counts in HolePunchFallbacks and emits
// hole-punch-fallback instead. Any other failure is ignored: a missed
// punch only costs disk space, never correctness.
func (db *DB) punchHoles(ops []fileOp) (fallbacks []fileOp) {
	f, err := db.fs.Open(ops[0].name(ops[0].num))
	if err != nil {
		return nil
	}
	defer f.Close()
	for len(ops) > 0 {
		run, n := ops[0], 1
		for ; n < len(ops) && ops[n].r.off <= run.r.off+run.r.size; n++ {
			run.r.size = max(run.r.size, ops[n].r.off+ops[n].r.size-run.r.off)
		}
		ops = ops[n:]
		e := events.Event{Type: events.TypeHolePunch, File: run.num, BytesOut: run.r.size, Inputs: n}
		switch perr := f.PunchHole(run.r.off, run.r.size); {
		case perr == nil:
			db.met.HolePunches.Add(int64(n))
		case errors.Is(perr, vfs.ErrPunchHoleUnsupported) || errors.Is(perr, vfs.ErrReadOnly):
			db.met.HolePunchFallbacks.Add(int64(n))
			e.Type = events.TypeHolePunchFallback
			fallbacks = append(fallbacks, run)
		default:
			continue
		}
		db.ev.Emit(e)
	}
	return fallbacks
}
