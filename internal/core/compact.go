package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/bolt-lsm/bolt/internal/compaction"
	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/iterator"
	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/metrics"
	"github.com/bolt-lsm/bolt/internal/sstable"
	"github.com/bolt-lsm/bolt/internal/vlog"
)

// CompactRange synchronously compacts every table overlapping the user-key
// range [start, limit] (nil = unbounded) down the tree, level by level,
// after flushing the current memtable. Tools use it to settle a database
// into its minimal shape; nil,nil compacts everything.
func (db *DB) CompactRange(start, limit []byte) error {
	// No unlock window may separate a rotation from the manualActive claim
	// below, so its wal-rotation event is emitted on the way out, after mu
	// is released, back-dated to the rotation.
	var rotations []events.Event
	defer func() {
		for _, e := range rotations {
			db.ev.Emit(e)
		}
	}()
	db.mu.Lock()
	// Exclude the scheduler in the critical section that rotates the
	// memtable, not after the flush: the flush lands the L0 tables this
	// call is about to compact, and a scheduler still picking would race
	// the manual pass for them. Not earlier either: the rotation may wait
	// for a group-commit leader, and a leader stalled on the L0 stop
	// governor needs the scheduler to release it. manualActive stops new
	// compaction picks (pickCompactionLocked returns nil) and value-GC
	// passes; flushes keep running — the wait below depends on one — and
	// reserved work already in flight runs to completion first. It also
	// serializes manual compactions: each assumes it is the only consumer
	// of current-version tables, so a call that finds another one claimed
	// the flag while it waited for its rotation starts over.
	for {
		for db.manualActive && !db.closed {
			db.cond.Wait()
		}
		if db.closed {
			db.mu.Unlock()
			return ErrClosed
		}
		if err := db.pendingErrLocked(); err != nil {
			db.mu.Unlock()
			return err
		}
		// Flush current memtable content first so it participates.
		if !db.mem.Empty() {
			logNum, err := db.forceMemtableSwitchLocked()
			if err != nil {
				db.mu.Unlock()
				return err
			}
			rotations = append(rotations, events.Event{Type: events.TypeWALRotation, File: logNum, Time: time.Now()})
		}
		if !db.manualActive {
			break
		}
	}
	db.manualActive = true
	defer func() {
		// The cleanup must run under mu, so mu is released here rather
		// than at the return sites.
		db.manualActive = false
		db.maybeScheduleWorkLocked()
		db.cond.Broadcast()
		db.mu.Unlock()
	}()
	for (db.imm != nil || db.lanes[laneFlush].busy+db.lanes[lanePool].busy > 0) && !db.bgStoppedLocked() {
		db.maybeScheduleWorkLocked()
		db.cond.Wait()
	}
	// One compaction per sorted level is exhaustive; level 0 repeats until
	// nothing in range is left, since flushes keep landing there.
	level := 0
	err := db.runForegroundLocked(func() *job {
		for ; level < manifest.NumLevels-1; level++ {
			if c := db.manualCompactionLocked(level, start, limit); c != nil {
				if level > 0 {
					level++
				}
				return db.reserveLocked(jobCompaction, c)
			}
		}
		return nil
	})
	if err != nil {
		// Manual compactions surface failures to the caller instead of
		// retrying; the tree is unchanged.
		return fmt.Errorf("core: manual compaction: %w", err)
	}
	// A close mid-compaction is a deliberate shutdown, not a compaction
	// failure; a background error or degradation observed while waiting
	// must reach the caller.
	return db.pendingErrLocked()
}

// manualCompactionLocked builds CompactRange's compaction of everything at
// level overlapping [start, limit] into level+1, or returns nil.
func (db *DB) manualCompactionLocked(level int, start, limit []byte) *compaction.Compaction {
	v := db.vs.Current()
	inputs := v.Overlaps(level, start, limit)
	if len(inputs) == 0 {
		return nil
	}
	c := &compaction.Compaction{
		Level:       level,
		OutputLevel: level + 1,
		Inputs:      inputs,
		Reason:      compaction.ReasonManual,
	}
	smallest, largest := c.Range()
	if level == 0 {
		// Level 0 files overlap each other: widen to the closure of
		// everything in range, so one compaction (one barrier pair) moves
		// the whole level rather than one table's pile.
		for {
			wider := v.Overlaps(0, smallest, largest)
			if len(wider) == len(c.Inputs) {
				break
			}
			c.Inputs = wider
			smallest, largest = c.Range()
		}
	}
	c.NextInputs = v.Overlaps(level+1, smallest, largest)
	return c
}

// forceMemtableSwitchLocked rotates the memtable regardless of its size so
// a flush of current contents can be awaited. It returns the new log number
// for the caller's wal-rotation event.
func (db *DB) forceMemtableSwitchLocked() (uint64, error) {
	// Waiting on leaderActive too: the group-commit leader appends to the
	// current WAL writer with mu released, so rotating (and closing) it
	// here while a leader is in that window would race the append.
	for (db.imm != nil || db.leaderActive) && !db.bgStoppedLocked() {
		db.rotateWaiters++
		db.cond.Wait()
		db.rotateWaiters--
	}
	if db.closed {
		return 0, ErrClosed
	}
	if err := db.pendingErrLocked(); err != nil {
		return 0, err
	}
	return db.switchMemtableLocked()
}

// pickCompactionLocked returns the next compaction the picker can run
// alongside the in-flight set, or nil. The pending seek candidate (if
// any) is handed to the picker and consumed either way: like the
// pre-scheduler engine, a seek hint gets exactly one pick attempt.
func (db *DB) pickCompactionLocked() *compaction.Compaction {
	if db.manualActive {
		return nil
	}
	env := compaction.Env{
		CompactPointer: db.vs.CompactPointer,
		InFlight:       db.inflight,
		SeekFile:       db.seekCompactFile,
		SeekLevel:      db.seekCompactLevel,
	}
	db.seekCompactFile = nil
	return db.picker.Pick(db.vs.Current(), env)
}

// flushLocked converts the immutable memtable into level-0 tables. Called
// with mu held; releases it during I/O. On failure the immutable memtable
// and its WAL are left in place so the caller can retry; partially written
// output files become orphans for the next recovery to collect (they are
// never deleted here — an apparently failed sync may still have reached
// the platter, and the MANIFEST of a failed commit may reference them).
func (db *DB) flushLocked(j *job) error {
	imm := db.imm
	logNum := db.walNum // stable: imm != nil blocks further switches
	vlogW := db.vlogW

	db.mu.Unlock()
	// The flush barrier covers the value log: every pointer in imm must be
	// durable before the tables referencing it commit. Without SyncWAL the
	// commit path never synced these appends; this is where they settle.
	var err error
	if vlogW != nil {
		err = vlogW.Sync()
	}
	var metas []*manifest.FileMeta
	if err == nil {
		metas, err = db.writeTables(imm.NewIter(), 0)
	}
	db.mu.Lock()
	if err != nil {
		return fmt.Errorf("core: flush: %w", err)
	}

	edit := &manifest.VersionEdit{}
	edit.SetLogNum(logNum)
	for _, m := range metas {
		edit.AddFile(0, m)
	}
	// Log the after-flush entries that are due: sealed segments' size
	// records from rotations since the last flush, value-GC advances
	// committed into the memtable this flush retires or an older one
	// (vloggc.go, rule 2), and the retired WAL. The active segment is
	// recorded at its synced length (Size merges by max, so a later, longer
	// record always wins).
	queued := len(db.afterFlush)
	for _, a := range db.afterFlush {
		if a.gen < logNum {
			a.addTo(edit)
		}
	}
	if db.vlogW != nil {
		edit.AddVLogSegment(manifest.VLogSegmentEdit{Num: db.vlogW.Seg(), Size: db.vlogW.SyncedSize()})
	}
	if err := db.logAndApplyLocked(edit); err != nil {
		return fmt.Errorf("core: flush commit: %w", err)
	}
	// Entries queued during logAndApply's unlock window were not in the
	// edit and stay; the logged ones license their reclaims now.
	keep := db.afterFlush[:0]
	for i, a := range db.afterFlush {
		if i >= queued || a.gen >= logNum {
			keep = append(keep, a)
		} else if a.r.num != 0 {
			db.reclaims = append(db.reclaims, a.r)
		}
	}
	clear(db.afterFlush[len(keep):])
	db.afterFlush = keep
	var outBytes int64
	for _, m := range metas {
		db.physRefs[m.PhysNum]++
		outBytes += m.Size
	}
	db.met.TablesCreated.Add(int64(len(metas)))
	db.met.LevelCompactionsIn[0].Add(1)
	db.met.LevelBytesWritten[0].Add(outBytes)
	db.imm = nil
	// The memtable-absence liveness rule (see filterGCBatchLocked) expires
	// whenever a memtable retires.
	db.flushEpoch++
	j.end.Outputs, j.end.BytesOut = len(metas), outBytes
	return nil
}

// compactLocked executes one compaction. Called with mu held; releases it
// during I/O. On failure the tree is unchanged and the error is returned
// for the caller's retry/degrade policy; output files written before the
// failure are left as orphans (see flushLocked).
func (db *DB) compactLocked(j *job) error {
	c := j.c
	v := db.vs.Current()
	v.Ref() // pin input tables for the duration
	smallestSnap := db.smallestSnapshotLocked()
	dropTombstones := db.canDropTombstonesLocked(v, c)
	// Garbage accounting: a dropped pointer entry is value-log garbage,
	// but only if it lands past the segment's GC cursor — below it the
	// bytes are already collected (or pending collection) and counting
	// them again would inflate the ratio. Snapshot the cursors now.
	var gcOffsets map[uint64]int64
	if segs := v.VLogSegments(); len(segs) > 0 {
		cursors := db.vlogCursorsLocked()
		gcOffsets = make(map[uint64]int64, len(segs))
		for _, s := range segs {
			gcOffsets[s.Num], _ = cursors[s.Num].Apply(s)
		}
	}
	var levelBytes, nextBytes int64
	for _, f := range c.Inputs {
		levelBytes += f.Size
	}
	for _, f := range c.NextInputs {
		nextBytes += f.Size
	}

	var (
		metas   []*manifest.FileMeta
		garbage map[uint64]int64
		skipped int
		err     error
	)
	salvage := c.Reason == compaction.ReasonSalvage
	db.mu.Unlock()
	switch {
	case salvage:
		metas, skipped, err = db.writeSalvageTables(c)
	case len(c.Inputs)+len(c.NextInputs) > 0:
		metas, garbage, err = db.writeCompactionTables(c, smallestSnap, dropTombstones, gcOffsets)
	}
	db.mu.Lock()
	v.Unref()
	if err != nil {
		return fmt.Errorf("core: compaction: %w", err)
	}

	edit := &manifest.VersionEdit{}
	for _, f := range c.Inputs {
		edit.DeleteFile(c.Level, f.Num)
	}
	for _, f := range c.NextInputs {
		edit.DeleteFile(c.OutputLevel, f.Num)
	}
	for _, f := range c.Settled {
		// The settled promotion: a MANIFEST-only move, no data rewrite.
		edit.DeleteFile(c.Level, f.Num)
		edit.AddFile(c.OutputLevel, f)
	}
	for _, m := range metas {
		edit.AddFile(c.OutputLevel, m)
	}
	if !db.cfg.Fragmented && !db.cfg.SettledCompaction && !salvage && c.Level > 0 && len(c.Inputs) > 0 {
		last := c.Inputs[len(c.Inputs)-1]
		edit.CompactPointers = append(edit.CompactPointers, manifest.CompactPointer{
			Level: c.Level,
			Key:   last.Largest,
		})
	}
	for seg, g := range garbage {
		// A segment a concurrent GC pass deleted drops the record when the
		// edit applies (see versionBuilder.apply).
		edit.AddVLogSegment(manifest.VLogSegmentEdit{Num: seg, GarbageDelta: g})
	}

	if err := db.logAndApplyLocked(edit); err != nil {
		return fmt.Errorf("core: compaction commit: %w", err)
	}

	var outBytes int64
	for _, m := range metas {
		db.physRefs[m.PhysNum]++
		outBytes += m.Size
	}
	db.met.CompactionsByReason[compactionReasonBucket(c.Reason)].Add(1)
	db.met.CompactionBytesIn.Add(c.InputBytes())
	db.met.CompactionBytesOut.Add(outBytes)
	db.met.TablesCreated.Add(int64(len(metas)))
	db.met.SettledPromotions.Add(int64(len(c.Settled)))
	db.met.LevelBytesRead[c.Level].Add(levelBytes)
	db.met.LevelBytesRead[c.OutputLevel].Add(nextBytes)
	db.met.LevelBytesWritten[c.OutputLevel].Add(outBytes)
	if salvage {
		db.met.Salvages.Add(1)
		db.met.SalvageSkipped.Add(int64(skipped))
	} else {
		db.met.LevelCompactionsOut[c.Level].Add(1)
		db.met.LevelCompactionsIn[c.OutputLevel].Add(1)
	}

	// The deleted tables are reclaimed once no version older than this
	// edit's is pinned.
	deletedIn := db.vs.Current().ID()
	for _, files := range [2][]*manifest.FileMeta{c.Inputs, c.NextInputs} {
		for _, f := range files {
			db.reclaims = append(db.reclaims, reclaim{table: f, gate: deletedIn})
		}
	}

	j.end = events.Event{Level: c.Level, OutputLevel: c.OutputLevel, Outputs: len(metas), BytesOut: outBytes}
	if len(c.Settled) > 0 {
		j.after = append(j.after, events.Event{
			Type:        events.TypeSettledPromotion,
			Level:       c.Level,
			OutputLevel: c.OutputLevel,
			Outputs:     len(c.Settled),
		})
	}
	if salvage {
		j.after = append(j.after, events.Event{
			Type:     events.TypeQuarantineClear,
			Level:    c.Level,
			Outputs:  len(metas),
			BytesOut: outBytes,
			Inputs:   skipped,
		})
	}
	return nil
}

// writeCompactionTables merges the compaction inputs into output tables,
// applying the snapshot-aware drop rules. Pointer entries pass through
// unmodified — the whole point of separation is that compactions never
// touch value bytes — but dropped ones are tallied as garbage against
// their segment (past its GC watermark, per gcOffsets). Called without mu.
//
// The merge has one source per sorted run of the inputs, not one per
// table: a group compaction out of a sorted level is a two-way merge, one
// out of level 0 merges its runs with the next level's tables, and each
// run opens its tables lazily, one at a time.
func (db *DB) writeCompactionTables(c *compaction.Compaction, smallestSnap keys.Seq, dropTombstones bool, gcOffsets map[uint64]int64) ([]*manifest.FileMeta, map[uint64]int64, error) {
	var merged iterator.Merging
	merged.Init(db.compactionSources(c))
	defer merged.Close()

	out := db.newTableOutput(c.OutputLevel, c.CutPoints)
	var garbage map[uint64]int64
	var lastUser []byte
	lastSeqForKey := keys.MaxSeq
	haveUser := false
	for ok := merged.First(); ok; ok = merged.Next() {
		ikey := merged.Key()
		uk := ikey.UserKey()
		if !haveUser || keys.CompareUser(uk, lastUser) != 0 {
			haveUser = true
			lastUser = append(lastUser[:0], uk...)
			lastSeqForKey = keys.MaxSeq
		}
		drop := false
		if lastSeqForKey <= smallestSnap {
			// A newer version of this key is already visible to the oldest
			// snapshot; this one can never be read again.
			drop = true
		} else if ikey.Kind() == keys.KindDelete && ikey.Seq() <= smallestSnap && dropTombstones {
			drop = true
		}
		lastSeqForKey = ikey.Seq()
		if drop {
			if ikey.Kind() == keys.KindSetPtr && gcOffsets != nil {
				if p, perr := vlog.DecodePointer(merged.Value()); perr == nil {
					if gcOff, ok := gcOffsets[p.Seg]; ok && p.Off >= gcOff {
						if garbage == nil {
							garbage = make(map[uint64]int64)
						}
						garbage[p.Seg] += p.Len
					}
				}
			}
			continue
		}
		if err := out.add(ikey, merged.Value()); err != nil {
			out.abort()
			return nil, nil, err
		}
	}
	if err := merged.Err(); err != nil {
		out.abort()
		return nil, nil, err
	}
	metas, err := out.finish()
	return metas, garbage, err
}

// writeSalvageTables rewrites the still-checksummed blocks of a quarantined
// table into fresh tables at the same level, dropping unreadable blocks.
// The output span is a subset of the input span, so a sorted level stays
// sorted. skipped counts the blocks lost to corruption; a table too
// corrupt to open at all is dropped whole (skipped = 1, no outputs).
// Called without mu.
func (db *DB) writeSalvageTables(c *compaction.Compaction) (metas []*manifest.FileMeta, skipped int, err error) {
	f := c.Inputs[0]
	h, err := db.tableCache.Acquire(f)
	if err != nil {
		if errors.Is(err, sstable.ErrCorrupt) {
			return nil, 1, nil
		}
		return nil, 0, err
	}
	defer h.Release()
	out := db.newTableOutput(c.OutputLevel, nil)
	skipped, err = h.Reader.Salvage(func(ikey keys.InternalKey, value []byte) error {
		return out.add(ikey, value)
	})
	if err != nil {
		out.abort()
		return nil, 0, err
	}
	metas, err = out.finish()
	if err != nil {
		return nil, 0, err
	}
	return metas, skipped, nil
}

// inputRuns splits compaction inputs from one level into the sorted runs
// they are read as: a sorted level's tables, in level order, are one run;
// level 0 and the piles of fragmented profiles are regrouped by physical
// file.
func (db *DB) inputRuns(level int, files []*manifest.FileMeta) [][]*manifest.FileMeta {
	if len(files) == 0 {
		return nil
	}
	if level > 0 && !db.cfg.Fragmented {
		return [][]*manifest.FileMeta{files}
	}
	runs, _ := manifest.SortedRuns(files)
	return runs
}

// compactionSources returns one run iterator per sorted run of c's inputs.
func (db *DB) compactionSources(c *compaction.Compaction) []iterator.Iterator {
	in, next := db.inputRuns(c.Level, c.Inputs), db.inputRuns(c.OutputLevel, c.NextInputs)
	iters := make([]runIter, 0, len(in)+len(next))
	sources := make([]iterator.Iterator, 0, cap(iters))
	add := func(level int, runs [][]*manifest.FileMeta) {
		for _, files := range runs {
			iters = append(iters, runIter{db: db, level: level, files: files, forCompaction: true})
			sources = append(sources, &iters[len(iters)-1])
		}
	}
	add(c.Level, in)
	add(c.OutputLevel, next)
	return sources
}

// canDropTombstonesLocked reports whether tombstones written by c can be
// elided: nothing below the output level (or beside it, for fragmented
// levels) may hold an older version of a key in the compaction's range.
func (db *DB) canDropTombstonesLocked(v *manifest.Version, c *compaction.Compaction) bool {
	smallest, largest := c.Range()
	if smallest == nil {
		return false
	}
	for level := c.OutputLevel + 1; level < manifest.NumLevels; level++ {
		if len(v.Overlaps(level, smallest, largest)) > 0 {
			return false
		}
	}
	if db.cfg.Fragmented {
		merged := make(map[uint64]struct{}, len(c.NextInputs))
		for _, f := range c.NextInputs {
			merged[f.Num] = struct{}{}
		}
		for _, f := range v.Levels[c.OutputLevel] {
			if _, ok := merged[f.Num]; ok {
				continue
			}
			if f.OverlapsUser(smallest, largest) {
				return false
			}
		}
	}
	return true
}

// logAndApplyLocked commits edit with the MANIFEST barrier paid outside
// the engine mutex. Called with mu held; mu is held again on return. With
// invariants on, an edit that would log a value-GC advance before its
// memtable is flushed panics before anything is written.
func (db *DB) logAndApplyLocked(edit *manifest.VersionEdit) error {
	if db.cfg.VerifyInvariants || InvariantsEnabled {
		if err := db.checkGCAdvancesLocked(edit); err != nil {
			panic(err)
		}
	}
	db.mu.Unlock()
	db.manifestMu.Lock()
	db.mu.Lock()
	p := db.vs.Prepare(edit)
	db.mu.Unlock()
	err := db.vs.CommitPrepared(p) //boltvet:ignore guardedby -- the vs pointer is stable; manifestMu serializes commits, and the prepared state p is private to this call
	db.mu.Lock()
	if err == nil {
		db.vs.Install(p)
	} else {
		// A failed commit may have left a torn or unsynced tail in the
		// current MANIFEST; appending after it on a retry could make a
		// half-written record durable. Force the next commit to rotate to
		// a fresh MANIFEST instead.
		db.vs.ForceRotate()
	}
	db.manifestMu.Unlock()
	return err
}

// compactionReasonBucket maps a picker reason string onto the per-reason
// metrics counter index; the two size triggers share one bucket.
func compactionReasonBucket(reason string) metrics.CompactionReason {
	switch reason {
	case compaction.ReasonSeek:
		return metrics.CompactionSeek
	case compaction.ReasonSettled:
		return metrics.CompactionSettled
	case compaction.ReasonFragmented:
		return metrics.CompactionFragmented
	case compaction.ReasonManual:
		return metrics.CompactionManual
	case compaction.ReasonSalvage:
		return metrics.CompactionSalvage
	default:
		return metrics.CompactionSize
	}
}

// verifyInvariantsLocked re-checks the version layout when the test hook
// is enabled; a violation degrades the engine to read-only.
func (db *DB) verifyInvariantsLocked() {
	if db.cfg.VerifyInvariants {
		db.degradeLocked(db.checkVersionInvariants(db.vs.Current()))
	}
}
