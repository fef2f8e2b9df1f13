package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/sstable"
)

// RangeCorruptError is returned by reads whose key falls inside the span
// of a quarantined (corrupt) table. The error names the unavailable
// user-key range so callers can route around it: keys outside the span —
// and all writes — keep working, and the range recovers once the salvage
// compaction rewrites the table's readable blocks.
type RangeCorruptError struct {
	// Smallest and Largest bound the unavailable user-key span (inclusive).
	Smallest, Largest []byte
	// Level, Table, and PhysNum locate the quarantined table.
	Level   int
	Table   uint64
	PhysNum uint64
	// Cause is the corruption finding that triggered the quarantine; nil
	// when the quarantine was inherited from the manifest (the finding
	// happened before a restart or on another read).
	Cause error
}

// Error describes the unavailable range.
func (e *RangeCorruptError) Error() string {
	return fmt.Sprintf("core: key range [%q, %q] quarantined: table %d (phys file %d, L%d) is corrupt",
		e.Smallest, e.Largest, e.Table, e.PhysNum, e.Level)
}

// Unwrap matches errors.Is(err, sstable.ErrCorrupt) and exposes the cause.
func (e *RangeCorruptError) Unwrap() []error {
	if e.Cause != nil {
		return []error{sstable.ErrCorrupt, e.Cause}
	}
	return []error{sstable.ErrCorrupt}
}

// rangeCorruptError builds the typed error for a quarantined table.
func rangeCorruptError(level int, f *manifest.FileMeta, cause error) *RangeCorruptError {
	return &RangeCorruptError{
		Smallest: append([]byte(nil), f.Smallest.UserKey()...),
		Largest:  append([]byte(nil), f.Largest.UserKey()...),
		Level:    level,
		Table:    f.Num,
		PhysNum:  f.PhysNum,
		Cause:    cause,
	}
}

// quarantineTable records table f as corrupt in the manifest (mu not held).
func (db *DB) quarantineTable(level int, f *manifest.FileMeta, cause error) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.quarantineTableLocked(level, f, cause)
}

// quarantineTableLocked commits a quarantine mark for f: a manifest edit
// (so the mark survives restarts), the quarantine event, and a scheduler
// kick so the salvage compaction is picked promptly. Reports whether this
// call quarantined the table; false when it is already quarantined (or a
// commit is pending on another goroutine), no longer in the version, or
// the engine is stopping. Called with mu held; mu is released during the
// MANIFEST commit and the event emission.
func (db *DB) quarantineTableLocked(level int, f *manifest.FileMeta, cause error) bool {
	if db.bgStoppedLocked() {
		return false
	}
	cur := db.vs.Current()
	if cur.IsQuarantined(f.Num) || db.quarantinePending[f.Num] {
		return false
	}
	present := false
	for _, g := range cur.Levels[level] {
		if g.Num == f.Num {
			present = true
			break
		}
	}
	if !present {
		return false
	}
	db.quarantinePending[f.Num] = true
	edit := &manifest.VersionEdit{}
	edit.QuarantineFile(f.Num)
	err := db.logAndApplyLocked(edit)
	delete(db.quarantinePending, f.Num)
	if err != nil {
		// The quarantine could not be made durable. Do not degrade: the
		// read that found the corruption still fails loudly, and the next
		// finding (or scrub pass) retries the commit on a fresh MANIFEST
		// (logAndApplyLocked forced a rotation).
		return false
	}
	db.met.ScrubCorruptions.Add(1)
	db.met.Quarantines.Add(1)
	db.mu.Unlock()
	db.ev.Emit(events.Event{
		Type:  events.TypeQuarantine,
		Level: level,
		File:  f.PhysNum,
		Err:   cause.Error(),
	})
	db.mu.Lock()
	db.maybeScheduleWorkLocked()
	db.cond.Broadcast()
	return true
}

// maybeQuarantineRead is the read path's lazy detection: a table-corruption
// finding quarantines the owning table and converts to the typed range
// error; any other error passes through. Called without mu.
func (db *DB) maybeQuarantineRead(level int, f *manifest.FileMeta, err error) error {
	var ce *sstable.CorruptionError
	if !errors.As(err, &ce) {
		return err
	}
	db.quarantineTable(level, f, err)
	return rangeCorruptError(level, f, err)
}

// quarantineCorruptLocked inspects a failed background compaction's error:
// a table-corruption finding quarantines the owning table (containment)
// instead of burning the retry budget toward a whole-DB read-only
// degradation. Reports whether the error was absorbed this way.
func (db *DB) quarantineCorruptLocked(err error) bool {
	var ce *sstable.CorruptionError
	if !errors.As(err, &ce) {
		return false
	}
	v := db.vs.Current()
	for level := range v.Levels {
		for _, f := range v.Levels[level] {
			if f.Num == ce.TableID {
				return db.quarantineTableLocked(level, f, err)
			}
		}
	}
	return false
}

// Scrub runs one synchronous integrity pass: every live, unreserved,
// not-yet-quarantined table is verified block by block against its
// checksums (bypassing the block cache, so at-rest bit rot is seen even
// for cached data). Corrupt tables are quarantined for salvage. The pass
// throttles to Config.ScrubBytesPerSec and skips tables reserved by
// in-flight compactions — their data is being rewritten anyway, and the
// pass's version pin keeps every scanned table's file alive regardless.
// The background scrubber (Config.ScrubInterval) runs the same pass on
// the scrub lane. An engine whose background work has stopped (degraded
// to read-only) returns its pending error instead.
func (db *DB) Scrub() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if err := db.pendingErrLocked(); err != nil {
		return err
	}
	pass := db.scrubJobLocked()
	return db.runForegroundLocked(func() *job {
		j := pass
		pass = nil
		return j
	})
}

// scrubTarget is one table a scrub pass verifies.
type scrubTarget struct {
	level int
	f     *manifest.FileMeta
}

// scrubJobLocked claims one scrub pass: it pins the current version and
// lists every not-yet-quarantined table in it.
func (db *DB) scrubJobLocked() *job {
	v := db.vs.Current()
	v.Ref()
	j := &job{kind: jobScrub, v: v}
	for level := range v.Levels {
		for _, f := range v.Levels[level] {
			if !v.IsQuarantined(f.Num) {
				j.targets = append(j.targets, scrubTarget{level, f})
				j.start.BytesIn += f.Size
			}
		}
	}
	j.start.Inputs = len(j.targets)
	return j
}

// scrubLocked verifies a scrub job's tables. Called with mu held; releases
// it for the pass.
func (db *DB) scrubLocked(j *job) error {
	db.mu.Unlock()
	for _, t := range j.targets {
		db.mu.Lock()
		stop := db.closed
		skip := db.inflight.FileReserved(t.f.Num) || db.vs.Current().IsQuarantined(t.f.Num)
		db.mu.Unlock()
		if stop {
			break
		}
		if skip {
			continue
		}
		verr := db.scrubTable(t.f)
		j.end.Inputs++
		j.end.BytesIn += t.f.Size
		db.met.ScrubTables.Add(1)
		db.met.ScrubBytes.Add(t.f.Size)
		if verr != nil && errors.Is(verr, sstable.ErrCorrupt) {
			j.end.Outputs++
			db.ev.Emit(events.Event{
				Type:  events.TypeScrubFinding,
				Level: t.level,
				File:  t.f.PhysNum,
				Err:   verr.Error(),
			})
			db.quarantineTable(t.level, t.f, verr)
		}
		db.scrubThrottle(t.f.Size)
	}
	db.met.ScrubPasses.Add(1)
	db.mu.Lock()
	return nil
}

// scrubTable verifies one table. A table-open failure counts as a finding
// only when it classifies as corruption; transient open errors are skipped
// (the next pass retries).
func (db *DB) scrubTable(f *manifest.FileMeta) error {
	h, err := db.tableCache.Acquire(f)
	if err != nil {
		return err
	}
	defer h.Release()
	return h.Reader.VerifyTable()
}

// scrubThrottle sleeps long enough that n verified bytes stay under the
// configured scrub bandwidth.
func (db *DB) scrubThrottle(n int64) {
	if db.cfg.ScrubBytesPerSec <= 0 || n <= 0 {
		return
	}
	d := time.Duration(float64(n) / float64(db.cfg.ScrubBytesPerSec) * float64(time.Second))
	if d <= 0 {
		return
	}
	select {
	case <-db.stopc:
	case <-time.After(d):
	}
}
