package core

import (
	"slices"
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

// dbWriter is one queued write. The writer queue is an intrusive list
// through next, from db.writers to db.lastWriter. Its head is the leader:
// it performs the group commit on behalf of every writer it absorbs, and
// its group runs from the head to the group's last member. next is set
// under mu, on the tail only. A writer with no batch is a forced memtable
// switch (flushMemtableLocked): the queue is the only place a memtable is
// switched, so no leader's WAL rotates under its off-mu append.
type dbWriter struct {
	b    *batch.Batch
	next *dbWriter // guarded by db.mu
	cv   sync.Cond // on db.mu
	err  error
	// done means the write has been fully committed (or failed).
	done bool
	// doInsert (ConcurrentWriters profiles) wakes the writer to insert its
	// own batch into mem concurrently; seq/mem/wg carry its assignment.
	doInsert bool
	seq      keys.Seq
	mem      *memtable.MemTable
	wg       *sync.WaitGroup
	// gc marks a value-GC commit: its batch of plain Puts is built under
	// mu by filterGCBatchLocked once the writer is leader, so it never
	// joins another leader's group. Otherwise it commits like any batch —
	// separated off mu, synced only under SyncWAL: the punches it licenses
	// wait for the flush that makes the re-puts durable (vloggc.go, rule 2).
	gc *gcCommit
	// manual marks CompactRange's forced switch: it takes the
	// manual-compaction claim in the critical section of its switch.
	manual bool
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
	if db.lastWriter == nil {
		db.writers = w
	} else {
		db.lastWriter.next = w
	}
	db.lastWriter = w
	for {
		if w.doInsert {
			db.insertFollower(w)
			continue
		}
		if w.done || db.writers == w {
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
	walRotation, err := db.makeRoomForWriteLocked(w.b == nil)
	var group *batch.Batch
	last := w                     // the group's last member
	var vlogRotation events.Event // set if this commit rotated the value log
	switch {
	case err != nil:
	case w.b == nil:
		// A forced switch is done: it logs no record and leads no group.
		if w.manual {
			if db.manualActive {
				err = errManualBusy
			} else {
				db.manualActive = true
			}
		}
	default:
		if w.gc != nil {
			// Build the GC re-put batch now, under mu: liveness established
			// at scan time is re-checked against the current memtables
			// before any record is rewritten (see filterGCBatchLocked).
			db.filterGCBatchLocked(w)
		}
		group, last = db.buildGroupLocked()
		db.met.GroupCommits.Add(1)
		startSeq := db.VisibleSeq() + 1
		group.SetSeq(startSeq)
		seq := startSeq
		for m := w; m != last.next; m = m.next {
			m.seq = seq
			seq += keys.Seq(m.b.Count())
		}
		mem := db.mem
		walW := db.walW
		vlogW := db.vlogW
		// User payload: a value-GC leader's re-puts are not.
		userBytes := int64(group.Size())
		if w.gc != nil {
			userBytes -= int64(w.b.Size())
		}
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
			if db.cfg.ConcurrentWriters && last != w && !extracted {
				err = db.insertConcurrently(mem, w, last)
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
				vlogRotation = db.rotateVLogLocked()
			}
		}
	}

	// Complete the group and wake the next leader.
	for m := w; m != last.next; m = m.next {
		m.err = err
		m.done = true
		if m != w {
			m.cv.Signal()
		}
	}
	if db.writers = last.next; db.writers != nil {
		db.writers.cv.Signal()
	} else {
		db.lastWriter = nil
	}
	if db.closed {
		// Close drains the writer queue before touching the WAL files.
		db.cond.Broadcast()
	}
	db.mu.Unlock()
	if walRotation.Type != 0 {
		db.ev.Emit(walRotation)
	}
	if vlogRotation.Type != 0 {
		db.ev.Emit(vlogRotation)
	}
	return err
}

// separateValues rewrites group so every KindSet entry whose value meets
// the threshold becomes a KindSetPtr entry pointing into the value log.
// Called off-mu in the leader's commit window, the only appender to vlogW;
// a flush-time Sync may run beside it. When nothing meets the threshold
// the group is returned untouched (and the common small-value write path
// pays one read-only scan).
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
// Called with mu held; returns the combined batch and the group's last
// member: the group runs from the head of the queue, its leader, to it.
func (db *DB) buildGroupLocked() (group *batch.Batch, last *dbWriter) {
	leader := db.writers
	group, last = leader.b, leader
	total := leader.b.Size()
	for next := leader.next; next != nil; next = next.next {
		// A value-GC writer's batch is built only once it leads, and a
		// forced switch has none.
		if next.gc != nil || next.b == nil || total+next.b.Size() > maxGroupCommitBytes {
			break
		}
		if last == leader {
			group = batch.New()
			group.Append(leader.b)
		}
		group.Append(next.b)
		total += next.b.Size()
		last = next
	}
	return group, last
}

// insertConcurrently wakes every member of the group from leader to last to
// insert its own batch into mem in parallel — the HyperLevelDB write path.
// Called without mu.
func (db *DB) insertConcurrently(mem *memtable.MemTable, leader, last *dbWriter) error {
	var wg sync.WaitGroup
	db.mu.Lock()
	for m := leader.next; m != last.next; m = m.next {
		wg.Add(1)
		m.doInsert = true
		m.mem = mem
		m.wg = &wg
		m.cv.Signal()
	}
	db.mu.Unlock()
	err := leader.b.IterateWithSeq(leader.seq, func(seq keys.Seq, kind keys.Kind, key, value []byte) error {
		mem.Add(seq, kind, key, value)
		return nil
	})
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
// A forced call, a writer with no batch, passes no governor and counts no
// stall: it waits only for the previous flush, then switches the memtable
// unless the switch would retire nothing. It returns the wal-rotation event
// of its switch, if any, for the leader to emit once it releases mu.
// Called with mu held by the leader; may release and re-acquire mu.
func (db *DB) makeRoomForWriteLocked(force bool) (rotation events.Event, err error) {
	slowdownDone := force
	for {
		switch {
		case db.roCause != nil:
			return rotation, db.pendingErrLocked()
		case db.closed:
			return rotation, ErrClosed

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

		case force && db.mem.Empty() && !db.gcAdvanceWaitsLocked():
			return rotation, nil
		case !force && db.mem.ApproximateSize() < db.cfg.MemTableBytes:
			return rotation, nil

		case db.imm != nil && force:
			db.cond.Wait()
		case db.imm != nil:
			// Previous memtable still flushing.
			db.stallOnCondLocked("memtable-full")

		case !force && db.cfg.L0StopTrigger > 0 && db.l0UnitsLocked() >= db.cfg.L0StopTrigger:
			// L0Stop governor: block until compaction drains level 0.
			db.stallOnCondLocked("l0-stop")

		default:
			if rotation, err = db.switchMemtableLocked(); err != nil {
				return rotation, err
			}
		}
	}
}

// gcAdvanceWaitsLocked reports whether a value-GC advance waits for the
// flush of the active memtable (vloggc.go, rule 2): switching it retires
// that advance even when the memtable is empty.
func (db *DB) gcAdvanceWaitsLocked() bool {
	gen := db.walW.Num()
	return slices.ContainsFunc(db.afterFlush, func(a afterFlush) bool { return a.gen == gen })
}

// switchMemtableLocked retires the memtable and its WAL: a fresh pair takes
// the writes that follow, the old memtable becomes imm and the scheduler is
// told. It returns the wal-rotation event, stamped now; the leader emits it
// once it releases mu.
func (db *DB) switchMemtableLocked() (events.Event, error) {
	num := db.vs.NextFileNum()
	newWal, err := wal.NewWriter(db.fs, manifest.LogFileName(num))
	if err != nil {
		return events.Event{}, err
	}
	// The retired WAL is obsolete once the flush of its memtable commits,
	// and its writer rides the same entry: that flush closes it (Close, if
	// none does), since closing a mapped log unmaps and truncates it.
	old := db.walW
	db.afterFlush = append(db.afterFlush, afterFlush{gen: old.Num(), walW: old, r: reclaim{name: manifest.LogFileName, num: old.Num(), whole: true}})
	db.walW = newWal
	db.imm = db.mem
	db.mem = memtable.New()
	db.met.MemtableSwitch.Add(1)
	db.maybeScheduleWorkLocked()
	return events.Event{Type: events.TypeWALRotation, File: num, Time: time.Now()}, nil
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
// many logical SSTables; in one-file-per-table layouts the count is the
// table count, so the governor reads the same on every profile. The count
// is precomputed on the Version at install time, so the per-write governor
// check is allocation-free.
func (db *DB) l0UnitsLocked() int { return db.vs.Current().L0PhysFiles() }
