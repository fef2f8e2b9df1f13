package core

import (
	"errors"
	"slices"

	"github.com/bolt-lsm/bolt/internal/batch"
	"github.com/bolt-lsm/bolt/internal/compaction"
	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/metrics"
	"github.com/bolt-lsm/bolt/internal/vfs"
	"github.com/bolt-lsm/bolt/internal/vlog"
)

// Value-log garbage collection.
//
// A GC pass scans one chunk of a sealed segment, liveness-checks every
// record against the tree, re-puts the live ones as plain Puts through the
// writer queue (the leader separates them like any user value: off mu,
// into the active segment, or inline when the current ValueThreshold says
// so), and records a pending advance: the segment's new GC watermark and
// the payload ranges it may hole-punch. One pass runs at a time, under the
// gcActive claim it takes at pick (jobs.go). A pass pays no barrier of its
// own. Four ordering rules keep it safe:
//
//  1. Liveness is decided twice: once at scan time through the full read
//     path, and again under mu at commit time (filterGCBatchLocked), so a
//     user overwrite that lands between the two can never be shadowed by
//     a re-put carrying a newer sequence number. The leader role orders
//     the re-put against every later write.
//  2. The advance rides the flush. The re-put commit is an ordinary batch
//     (synced only under SyncWAL), and the advance is tagged with the
//     memtable generation — the WAL number — active when the pass
//     committed. flushLocked logs every advance of the memtable it retires
//     or an older one in its own edit: by then the vlog sync and table
//     sync of that flush have made durable both the re-puts and every
//     newer version that decided a record dead, even ones that were only
//     in an unsynced memtable at scan time. logAndApplyLocked asserts the
//     rule under VerifyInvariants. An advance lost to a crash or Close
//     costs a re-scan: the scanned records then read as dead.
//  3. Passes run ahead of the MANIFEST: the in-memory cursor
//     (vlogCursorsLocked) folds pending advances into what the picker, the
//     next pass and compaction's garbage accounting see, so passes chain
//     on a segment without waiting for a flush, and a chunk is never
//     scanned twice.
//  4. Punching is gated on durability and readers. The advance's reclaim
//     enters the reclaim queue (reclaim.go) only once the advance is
//     durable, with two gates: the version the logging flush installed,
//     and the visible sequence captured after the re-put commit. A reader
//     that pins a version reads its sequence in the same critical section
//     (Get, NewIter), so one that pins that version or a newer one
//     resolves the re-put (or something newer), never the dead record; an
//     older pin holds the reclaim until it drops. Snapshots pin no
//     version: the sequence gate holds the reclaim for them, and for each
//     iterator opened on one, which keeps its own snapshot-list entry
//     until Close.

// gcRecord is one record a GC pass scanned. ptr, the record's own
// address, is what both liveness decisions compare the newest version
// against.
type gcRecord struct {
	key, value []byte
	ptr        vlog.Pointer
}

// gcCommit rides a dbWriter through the writer queue (see write.go).
type gcCommit struct {
	live   []gcRecord // the records found live at scan time
	logNum uint64     // db.vs.LogNum() at scan time
	// aborted is set by filterGCBatchLocked when a flush since the scan
	// made some record's liveness undecidable; the pass discards its
	// progress and re-scans.
	aborted bool
}

// errGCChunkFull stops the segment walk once a pass has scanned its chunk
// budget (at a record boundary, so a record straddling the budget still
// completes).
var errGCChunkFull = errors.New("core: gc chunk full")

// valueGCPassLocked runs one chunk-sized GC pass over the job's segment,
// starting at its cursor. Called with mu held; releases it for the scan,
// liveness checks, and the re-put commit. A pass that completes records
// a pending advance (rule 2) and pays no barrier. An aborted pass (stale
// liveness) returns nil without advancing the cursor — the caller simply
// re-picks and re-scans. A failed read or liveness check is returned for
// the runner's retry; only a walk that read fine and still made no
// progress (a rotted record header) marks the segment stuck.
func (db *DB) valueGCPassLocked(j *job) error {
	seg := j.seg
	j.end.File = seg
	s, ok := db.vs.Current().VLogSegment(seg)
	if !ok {
		return nil
	}
	logNum := db.vs.LogNum()
	start, _ := db.vlogCursorsLocked()[seg].Apply(s)
	segSize := s.Size
	chunkBudget := db.cfg.VLogGCChunkBytes
	db.mu.Unlock()

	// Scan one chunk of records. Punched or rotted payloads (header ok,
	// payload CRC bad) are walked over: already reclaimed, nothing to do.
	var records []gcRecord
	var punchRanges []deadRange
	chunkEnd := start
	werr := db.vlogFDs.With(seg, func(f vfs.File) error {
		_, err := vlog.Walk(f, start, segSize, func(rec vlog.WalkRecord) error {
			if rec.PayloadOK {
				records = append(records, gcRecord{
					key:   append([]byte(nil), rec.Key...),
					value: append([]byte(nil), rec.Value...),
					ptr:   vlog.Pointer{Seg: seg, Off: rec.Off, Len: rec.Len},
				})
				// Whatever the liveness verdict, the record's payload is
				// dead once the pass commits: dead records are superseded
				// already, live ones get re-put.
				punchRanges = append(punchRanges, deadRange{rec.Off + vlog.HeaderSize, rec.Len - vlog.HeaderSize})
			}
			chunkEnd = rec.Off + rec.Len
			if chunkEnd-start >= chunkBudget {
				return errGCChunkFull
			}
			return nil
		})
		return err
	})
	if werr != nil && !errors.Is(werr, errGCChunkFull) {
		db.mu.Lock()
		return werr
	}
	if chunkEnd == start {
		// Zero progress: a rotted record header blocks the walk. Mark the
		// segment stuck — its uncollected tail leaks space but no data —
		// so the picker stops choosing it, and report it.
		db.mu.Lock()
		db.vlogGCStuck[seg] = true
		db.met.VLogGCStuck.Add(1)
		j.after = append(j.after, events.Event{Type: events.TypeVLogGCStuck, File: seg, BytesIn: start, BytesOut: segSize - start})
		return nil
	}

	// Liveness, first decision: a record is live iff the tree's newest
	// version of its key is still the pointer to this very record.
	live := records[:0]
	var deadBytes int64
	for _, rec := range records {
		ok, err := db.pointsAt(rec.key, rec.ptr)
		if err != nil {
			db.mu.Lock()
			return err
		}
		if ok {
			live = append(live, rec)
		} else {
			deadBytes += rec.ptr.Len
		}
	}

	// Re-put the live records through the writer queue. The batch itself
	// is built under mu by filterGCBatchLocked, where liveness is decided
	// the second time.
	gc := &gcCommit{live: live, logNum: logNum}
	if len(live) > 0 {
		if err := db.commit(&dbWriter{b: batch.New(), gc: gc}); err != nil {
			db.mu.Lock()
			return err
		}
		if gc.aborted {
			// Stale liveness: discard this pass (no advance, no punches —
			// entries already re-put read as dead on re-scan).
			db.mu.Lock()
			return nil
		}
	}

	// Record the advance for the flush that retires the current memtable:
	// the re-puts are in it (or in an older one), and so is every newer
	// version the liveness checks saw.
	db.mu.Lock()
	full := chunkEnd >= segSize
	var reclaimed int64
	if full {
		reclaimed = segSize - start
	} else {
		for _, r := range punchRanges {
			reclaimed += r.size
		}
	}
	db.met.CompactionsByReason[metrics.CompactionValueGC].Add(1)
	db.met.VLogReclaimedBytes.Add(reclaimed)
	db.afterFlush = append(db.afterFlush, afterFlush{
		gen: db.walW.Num(),
		seg: manifest.VLogSegmentEdit{Num: seg, GCOffset: chunkEnd, GarbageDelta: -deadBytes},
		r:   reclaim{name: manifest.VLogFileName, num: seg, ranges: punchRanges, whole: full, seq: db.VisibleSeq()},
	})
	// BytesOut is what this pass made reclaimable; the punches themselves
	// wait for the next flush, and may then be deferred behind old readers.
	j.end.BytesIn, j.end.BytesOut, j.end.Outputs = chunkEnd-start, reclaimed, len(live)
	return nil
}

// vlogCursorsLocked returns the value-GC progress ahead of the version
// (rule 3; see compaction.VLogCursor), read off the after-flush list: each
// segment's pending advances folded together, and a Skip mark on stuck
// segments and on sealed segments whose size record still waits for a
// flush — the version's size for those is stale, and a pass that took it
// for the end would delete the records past it.
func (db *DB) vlogCursorsLocked() map[uint64]compaction.VLogCursor {
	n := len(db.afterFlush) + len(db.vlogGCStuck)
	if n == 0 {
		return nil
	}
	cursors := make(map[uint64]compaction.VLogCursor, n)
	for _, a := range db.afterFlush {
		if a.seg.Num != 0 {
			c := cursors[a.seg.Num]
			c.GCOffset = max(c.GCOffset, a.seg.GCOffset)
			c.GarbageDelta += a.seg.GarbageDelta
			c.Skip = c.Skip || !a.isGCAdvance()
			cursors[a.seg.Num] = c
		}
	}
	for seg := range db.vlogGCStuck {
		c := cursors[seg]
		c.Skip = true
		cursors[seg] = c
	}
	return cursors
}

// newestEntries is a detached snapshot, never registered or released, at
// keys.MaxSeq: it sees every entry in the tree, published or not.
var newestEntries = &Snapshot{seq: keys.MaxSeq}

// pointsAt reports whether the newest version of key in the whole tree is
// a pointer equal to expect. Called without mu; runs the full read path at
// newestEntries.
func (db *DB) pointsAt(key []byte, expect vlog.Pointer) (bool, error) {
	value, kind, found, v, err := db.lookup(key, newestEntries)
	if err != nil {
		return false, err
	}
	v.Unref()
	if !found || kind != keys.KindSetPtr {
		return false, nil
	}
	p, err := vlog.DecodePointer(value)
	return err == nil && p == expect, nil
}

// filterGCBatchLocked builds a GC writer's batch under mu: each record's
// liveness is re-decided against the current memtables, and the survivors
// become plain Puts, which the leader separates off mu like any user value
// (separateValues). Re-deciding here closes the scan-to-commit race: a
// user overwrite committed after the scan either shows in a memtable
// (record dropped) or was flushed, and then the flush's commit moved the
// log number (Prepare, under mu, before imm is cleared) — the pass aborts,
// because "absent from the memtables" no longer proves anything. A failed
// flush commit leaves the number moved: a spurious abort, never a missed
// one.
func (db *DB) filterGCBatchLocked(w *dbWriter) {
	gc := w.gc
	b := batch.New()
	for _, r := range gc.live {
		ikey := keys.MakeInternalKey(nil, r.key, keys.MaxSeq, keys.KindSeekMax)
		value, kind, found := db.mem.GetSeek(ikey)
		if !found && db.imm != nil {
			value, kind, found = db.imm.GetSeek(ikey)
		}
		switch {
		case found:
			if kind != keys.KindSetPtr {
				continue // overwritten or deleted since the scan: dead
			}
			p, err := vlog.DecodePointer(value)
			if err != nil || p != r.ptr {
				continue // overwritten (possibly by an earlier re-put): dead
			}
		case db.vs.LogNum() != gc.logNum:
			// Absent from the memtables, but a flush retired one since the
			// scan: the newest version may now be in a table this check
			// cannot see. Not provably live, not provably dead — abort.
			gc.aborted = true
			continue
		}
		b.Put(r.key, r.value)
	}
	w.b = b
}

// rotateVLogLocked retires the active segment, opens a fresh one, and
// returns the vlog-rotation event for the caller to emit once it releases
// mu. Called under mu by the group-commit leader once its appends are done
// (the only appender, so nothing writes the retired segment again). It
// pays no barrier: the retired writer goes on the after-flush list as its
// segment's size record, and the next flush syncs it, records it at the
// synced length and closes it; Close syncs any no flush took. If the new
// segment cannot be created, separation disables itself — large values
// stay inline, which is correct, just unseparated — rather than failing
// user writes.
func (db *DB) rotateVLogLocked() events.Event {
	old := db.vlogW
	e := events.Event{Type: events.TypeVLogRotation, BytesOut: old.Size()}
	db.afterFlush = append(db.afterFlush, afterFlush{seg: manifest.VLogSegmentEdit{Num: old.Seg()}, w: old})
	num := db.vs.NextFileNum()
	db.vlogW = nil
	if w, err := vlog.NewWriter(db.fs, manifest.VLogFileName(num), num); err == nil {
		db.vlogW, e.File = w, num
	}
	return e
}

// vlogWritersLocked returns the value log's open writers: the retired
// segments' on the after-flush list, in list order, then the active one.
func (db *DB) vlogWritersLocked() []*vlog.Writer {
	var ws []*vlog.Writer
	for _, a := range db.afterFlush {
		if a.w != nil {
			ws = append(ws, a.w)
		}
	}
	if db.vlogW != nil {
		ws = append(ws, db.vlogW)
	}
	return ws
}

// CompactValueLog synchronously runs value-GC passes until no sealed
// segment has uncollected garbage (any nonzero amount qualifies — the
// configured background ratio is ignored), then retires the memtable and
// waits for its flush, which logs every pass's advance and reclaims the
// space: one flush's barriers for any number of passes. Tests and tools
// use it to settle the value log deterministically.
func (db *DB) CompactValueLog() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	err := db.runForegroundLocked(func() *job {
		// A background pass holds the value-GC claim: wait the lane out.
		// While this call's own pass holds the claim, the lane picks
		// nothing.
		for db.lanes[laneValueGC].busy > 0 && !db.bgStoppedLocked() {
			db.cond.Wait()
		}
		// Tiny positive ratio: collect any segment with nonzero garbage,
		// but never churn a garbage-free one.
		return db.valueGCJobLocked(1e-12)
	})
	if err != nil {
		return err
	}
	if slices.ContainsFunc(db.afterFlush, afterFlush.isGCAdvance) && !db.bgStoppedLocked() {
		if err := db.flushMemtableLocked(false); err != nil {
			return err
		}
	}
	if db.closed {
		return ErrClosed
	}
	return db.pendingErrLocked()
}
