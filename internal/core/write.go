package core

import (
	"sync"
	"time"

	"github.com/bolt-lsm/bolt/internal/batch"
	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/memtable"
	"github.com/bolt-lsm/bolt/internal/vlog"
	"github.com/bolt-lsm/bolt/internal/wal"
)

// maxGroupCommitBytes bounds how much one leader batches into a single WAL
// record (LevelDB uses 1 MB).
const maxGroupCommitBytes = 1 << 20

// dbWriter is one queued write. The head of db.writers is the leader: it
// performs the group commit on behalf of every writer it absorbs.
type dbWriter struct {
	b   *batch.Batch
	cv  sync.Cond // on db.mu
	err error
	// done means the write has been fully committed (or failed).
	done bool
	// doInsert (ConcurrentWriters profiles) wakes the writer to insert its
	// own batch into mem concurrently; seq/mem/wg carry its assignment.
	doInsert bool
	seq      keys.Seq
	mem      *memtable.MemTable
	wg       *sync.WaitGroup
	// gc marks a value-GC commit: its batch is built under mu by
	// filterGCBatchLocked once the writer is leader, so it never joins
	// another leader's group. Otherwise it commits like any batch — synced
	// only under SyncWAL: the punches it licenses wait for the flush that
	// makes the re-puts durable (vloggc.go, rule 2).
	gc *gcCommit
}

// Write atomically applies b. Callers may invoke Write concurrently; a
// leader/follower group-commit protocol batches concurrent writers into
// one WAL record, exactly like LevelDB's writer queue.
func (db *DB) Write(b *batch.Batch) error {
	w := &dbWriter{b: b}
	return db.commit(w)
}

// commit queues w and runs the leader/follower group-commit protocol.
func (db *DB) commit(w *dbWriter) error {
	w.cv.L = &db.mu

	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if err := db.pendingErrLocked(); err != nil {
		db.mu.Unlock()
		return err
	}
	db.writers = append(db.writers, w)
	for {
		if w.doInsert {
			db.insertFollower(w)
			continue
		}
		if w.done || db.writers[0] == w {
			break
		}
		w.cv.Wait()
	}
	if w.done {
		err := w.err
		db.mu.Unlock()
		return err
	}

	// This writer is the leader.
	db.leaderActive = true
	err := db.makeRoomForWriteLocked()
	var group *batch.Batch
	var members []*dbWriter
	var sealedSeg, newSeg uint64 // nonzero if this commit rotated the value log
	var sealedSize int64
	if err == nil && w.gc != nil {
		// Build the GC re-put batch now, under mu: liveness established at
		// scan time is re-checked against the current memtables before any
		// record is rewritten (see filterGCBatchLocked).
		err = db.filterGCBatchLocked(w)
	}
	if err == nil {
		group, members = db.buildGroupLocked()
		db.met.GroupCommits.Add(1)
		startSeq := db.VisibleSeq() + 1
		group.SetSeq(startSeq)
		seq := startSeq
		for _, m := range members {
			m.seq = seq
			seq += keys.Seq(m.b.Count())
		}
		mem := db.mem
		walW := db.walW
		vlogW := db.vlogW
		userBytes := int64(group.Size())
		db.mu.Unlock()

		// WAL-time key-value separation: peel large values out of the group
		// into the value log before the WAL append, so the WAL (and the
		// tree) carry only pointers. The value log is synced ahead of the
		// WAL record that references it — recovery relies on this order to
		// treat any unresolvable pointer as an unacknowledged write.
		extracted := false
		if vlogW != nil {
			group, extracted, err = db.separateValues(group, startSeq, vlogW)
		}
		// Under SyncWAL every commit leaves the value log synced, so this
		// sync has work only when the group appended: separated values, or
		// a value-GC batch's re-puts.
		if err == nil && db.cfg.SyncWAL && vlogW != nil {
			err = vlogW.Sync()
		}

		// One WAL append (and at most one sync) for the whole group.
		if err == nil {
			err = walW.AddRecord(group.Repr())
		}
		if err == nil && db.cfg.SyncWAL {
			err = walW.Sync()
		}
		db.met.WALRecords.Add(1)

		if err == nil {
			// When values were extracted the followers' own batches no
			// longer match what was logged, so the leader inserts the
			// rewritten group for everyone.
			if db.cfg.ConcurrentWriters && len(members) > 1 && !extracted {
				err = db.insertConcurrently(mem, members)
			} else {
				err = group.Iterate(func(seq keys.Seq, kind keys.Kind, key, value []byte) error {
					mem.Add(seq, kind, key, value)
					return nil
				})
			}
		}
		db.mu.Lock()
		if err == nil {
			db.visibleSeq.Store(uint64(startSeq) + uint64(group.Count()) - 1)
			db.vs.SetLastSeq(db.visibleSeq.Load())
			db.met.Writes.Add(int64(group.Count()))
			db.met.BytesIn.Add(userBytes)
			if db.vlogW != nil && db.vlogW.Size() >= db.cfg.VLogSegmentBytes {
				sealedSeg, sealedSize = db.rotateVLogLocked()
				newSeg = db.vlogNum
			}
		}
	} else {
		members = []*dbWriter{w}
	}

	// Complete the group and wake the next leader.
	for _, m := range members {
		db.writers = db.writers[1:]
		m.err = err
		m.done = true
		if m != w {
			m.cv.Signal()
		}
	}
	db.leaderActive = false
	if len(db.writers) > 0 {
		db.writers[0].cv.Signal()
	}
	if db.closed || db.rotateWaiters > 0 {
		// Close drains the writer queue before touching the WAL files, and
		// forceMemtableSwitchLocked must not rotate the WAL writer out from
		// under this leader's off-mu append; both wait on cond.
		db.cond.Broadcast()
	}
	db.mu.Unlock()
	if sealedSeg != 0 {
		db.ev.Emit(events.Event{Type: events.TypeVLogRotation, File: newSeg, BytesOut: sealedSize})
	}
	return err
}

// separateValues rewrites group so every KindSet entry whose value meets
// the threshold becomes a KindSetPtr entry pointing into the value log.
// Called off-mu in the leader's commit window; vlogW locks itself against
// concurrent flush-time Syncs. When nothing meets the threshold the group
// is returned untouched (and the common small-value write path pays one
// read-only scan).
func (db *DB) separateValues(group *batch.Batch, startSeq keys.Seq, vlogW *vlog.Writer) (*batch.Batch, bool, error) {
	threshold := db.cfg.ValueThreshold
	anyLarge := false
	_ = group.Iterate(func(_ keys.Seq, kind keys.Kind, _, value []byte) error {
		if kind == keys.KindSet && len(value) >= threshold {
			anyLarge = true
		}
		return nil
	})
	if !anyLarge {
		return group, false, nil
	}
	out := batch.New()
	var ptrBuf []byte
	err := group.Iterate(func(_ keys.Seq, kind keys.Kind, key, value []byte) error {
		switch {
		case kind == keys.KindSet && len(value) >= threshold:
			p, err := vlogW.Append(key, value)
			if err != nil {
				return err
			}
			db.met.VLogAppends.Add(1)
			db.met.VLogAppendedBytes.Add(p.Len)
			ptrBuf = p.Encode(ptrBuf[:0])
			out.PutPtr(key, ptrBuf)
		case kind == keys.KindDelete:
			out.Delete(key)
		case kind == keys.KindSetPtr:
			out.PutPtr(key, value)
		default:
			out.Put(key, value)
		}
		return nil
	})
	if err != nil {
		return group, false, err
	}
	out.SetSeq(startSeq)
	return out, true, nil
}

// buildGroupLocked absorbs queued writers (up to the byte cap) into one batch.
// Called with mu held; returns the combined batch and its members in queue
// order (leader first).
func (db *DB) buildGroupLocked() (*batch.Batch, []*dbWriter) {
	leader := db.writers[0]
	members := []*dbWriter{leader}
	group := leader.b
	total := leader.b.Size()
	grouped := false
	for _, next := range db.writers[1:] {
		// A value-GC writer's batch is built only once it leads.
		if next.gc != nil || total+next.b.Size() > maxGroupCommitBytes {
			break
		}
		if !grouped {
			combined := batch.New()
			combined.Append(leader.b)
			group = combined
			grouped = true
		}
		group.Append(next.b)
		total += next.b.Size()
		members = append(members, next)
	}
	return group, members
}

// insertConcurrently wakes every group member to insert its own batch into
// mem in parallel — the HyperLevelDB write path. Called without mu.
func (db *DB) insertConcurrently(mem *memtable.MemTable, members []*dbWriter) error {
	var wg sync.WaitGroup
	// Members already marked done (a concurrent Close failed the queue)
	// have returned to their callers and will never perform their insert;
	// the leader applies their batches itself. Their WAL record is already
	// written, so applying keeps the log and memtable consistent.
	var orphaned []*dbWriter
	db.mu.Lock()
	for _, m := range members[1:] {
		if m.done {
			orphaned = append(orphaned, m)
			continue
		}
		wg.Add(1)
		m.doInsert = true
		m.mem = mem
		m.wg = &wg
		m.cv.Signal()
	}
	db.mu.Unlock()

	insert := func(m *dbWriter) error {
		return m.b.IterateWithSeq(m.seq, func(seq keys.Seq, kind keys.Kind, key, value []byte) error {
			mem.Add(seq, kind, key, value)
			return nil
		})
	}
	err := insert(members[0])
	for _, m := range orphaned {
		if ierr := insert(m); ierr != nil && err == nil {
			err = ierr
		}
	}
	wg.Wait()
	return err
}

// insertFollower runs in a follower woken with doInsert (mu held on entry
// and exit): it inserts its own batch outside the lock.
func (db *DB) insertFollower(w *dbWriter) {
	mem, seq, wg := w.mem, w.seq, w.wg
	w.doInsert = false
	b := w.b
	db.mu.Unlock()
	_ = b.IterateWithSeq(seq, func(seq keys.Seq, kind keys.Kind, key, value []byte) error {
		mem.Add(seq, kind, key, value)
		return nil
	})
	wg.Done()
	db.mu.Lock()
}

// makeRoomForWriteLocked applies the write governors and switches memtables.
// Called with mu held by the leader; may release and re-acquire mu.
func (db *DB) makeRoomForWriteLocked() error {
	slowdownDone := false
	for {
		switch {
		case db.readOnly:
			return db.pendingErrLocked()
		case db.closed:
			return ErrClosed

		case !slowdownDone && db.cfg.L0SlowdownTrigger > 0 &&
			db.l0UnitsLocked() >= db.cfg.L0SlowdownTrigger:
			// L0SlowDown governor: sleep 1 ms once, then proceed.
			slowdownDone = true
			db.met.StallSlowdown.Add(1)
			db.mu.Unlock()
			start := time.Now()
			db.ev.Emit(events.Event{Type: events.TypeStallBegin, Reason: "l0-slowdown"})
			time.Sleep(time.Millisecond)
			d := time.Since(start)
			db.met.AddStall(d)
			db.ev.Emit(events.Event{Type: events.TypeStallEnd, Reason: "l0-slowdown", Dur: d})
			db.mu.Lock()

		case db.mem.ApproximateSize() < db.cfg.MemTableBytes:
			return nil

		case db.imm != nil:
			// Previous memtable still flushing.
			db.stallOnCondLocked("memtable-full")

		case db.cfg.L0StopTrigger > 0 && db.l0UnitsLocked() >= db.cfg.L0StopTrigger:
			// L0Stop governor: block until compaction drains level 0.
			db.stallOnCondLocked("l0-stop")

		default:
			newLogNum, err := db.switchMemtableLocked()
			if err != nil {
				return err
			}
			db.mu.Unlock()
			db.ev.Emit(events.Event{Type: events.TypeWALRotation, File: newLogNum})
			db.mu.Lock()
		}
	}
}

// switchMemtableLocked retires the memtable and its WAL: a fresh pair takes
// the writes that follow, the old memtable becomes imm and the scheduler is
// told. It returns the new log number; the caller emits the wal-rotation
// event carrying it once it can release mu.
func (db *DB) switchMemtableLocked() (newLogNum uint64, err error) {
	newLogNum = db.vs.NextFileNum()
	newWal, err := wal.NewWriter(db.fs, manifest.LogFileName(newLogNum))
	if err != nil {
		return 0, err
	}
	_ = db.walW.Close()
	// The retired WAL is obsolete once the flush of its memtable commits.
	db.afterFlush = append(db.afterFlush, afterFlush{gen: db.walNum, r: reclaim{name: manifest.LogFileName, num: db.walNum, whole: true}})
	db.walNum = newLogNum
	db.walW = newWal
	db.imm = db.mem
	db.mem = memtable.New()
	db.met.MemtableSwitch.Add(1)
	db.maybeScheduleWorkLocked()
	return newLogNum, nil
}

// stallOnCondLocked blocks the leader on db.cond, accounting the stall and
// emitting the stall-begin/end event pair. The pair is emitted
// retroactively after the wait (begin carries the stall's start time):
// emitting before the Wait would require an unlock window in which a
// wake-up broadcast could be missed. The governor loop re-evaluates every
// condition after the emission window, so the relock is safe.
func (db *DB) stallOnCondLocked(cause string) {
	db.met.StallStops.Add(1)
	start := time.Now()
	db.cond.Wait()
	d := time.Since(start)
	db.met.AddStall(d)
	db.mu.Unlock()
	db.ev.Emit(events.Event{Type: events.TypeStallBegin, Reason: cause, Time: start})
	db.ev.Emit(events.Event{Type: events.TypeStallEnd, Reason: cause, Dur: d})
	db.mu.Lock()
}

// l0UnitsLocked counts level-0 governor units: distinct physical files.
// With BoLT compaction files one flush produces one physical file holding
// many logical SSTables; counting physical files keeps the governor
// semantics comparable with legacy layouts. The count is precomputed on
// the Version at install time, so the per-write governor check is
// allocation-free.
func (db *DB) l0UnitsLocked() int {
	v := db.vs.Current()
	if !db.cfg.compactionFileMode() {
		return len(v.Levels[0])
	}
	return v.L0PhysFiles()
}
