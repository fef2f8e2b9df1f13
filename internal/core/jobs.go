package core

import (
	"time"

	"github.com/bolt-lsm/bolt/internal/compaction"
	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/manifest"
)

// The background-job runner. A job is one unit of background work — a
// flush, a compaction (salvage included), one value-GC pass or one scrub
// pass — plus what it claimed when it was picked: the flush claim, an
// in-flight reservation, or a pinned version. Every job, background or
// foreground, runs in one envelope (runJobLocked) that numbers it, emits
// its start and end events with the job and worker IDs, the wall time and
// the barrier delta, releases its claim before any retry backoff, and
// then runs the reclaims that became ready (reclaim.go). The kind's run
// function (flushLocked, compactLocked, valueGCPassLocked,
// scrubLocked) does the I/O and the MANIFEST commit, nothing else.
//
// Background jobs run on lanes of bounded capacity (DESIGN.md §6d): flush
// (1 with SeparateFlushThread, else flushes share the pool), value GC (1:
// a GC pass commits through the writer queue, which can wait on a flush —
// on a pool slot, with MaxBackgroundCompactions=1, that would deadlock),
// the pool (MaxBackgroundCompactions) and scrub (1 with ScrubInterval).
// Worker IDs are unique across lanes: flush 0, pool 1..N, value GC N+1,
// scrub N+2; foreground work reports manualWorkerID.
type jobKind uint8

const (
	jobFlush jobKind = iota
	jobCompaction
	jobValueGC
	jobScrub
	numJobKinds
)

// jobEvents is each kind's start and end event type; a value-GC pass
// reports only its end.
var jobEvents = [numJobKinds][2]events.Type{
	jobFlush:      {events.TypeFlushStart, events.TypeFlushEnd},
	jobCompaction: {events.TypeCompactionStart, events.TypeCompactionEnd},
	jobValueGC:    {0, events.TypeVLogGC},
	jobScrub:      {events.TypeScrubStart, events.TypeScrubEnd},
}

// job is one picked unit of work and its claim.
type job struct {
	kind jobKind
	c    *compaction.Compaction // compaction and value-GC jobs
	r    *compaction.Reservation
	// v and targets are a scrub pass's pinned version and the tables it
	// verifies.
	v       *manifest.Version
	targets []scrubTarget
	// start is filled at pick time, end by the run function: the
	// kind-specific fields of the two events. after holds follow-up events
	// emitted behind the end event.
	start, end events.Event
	after      []events.Event
}

// manualWorkerID is the worker ID of foreground jobs.
const manualWorkerID = -1

// The lanes, in the order the scheduler fills them.
const (
	laneFlush = iota
	laneValueGC
	lanePool
	laneScrub
	numLanes
)

// lane is one class of background worker.
type lane struct {
	first int    // worker ID of slots[0]
	slots []bool // taken worker IDs; len(slots) is the capacity
	busy  int
}

func newLanes(cfg *Config) [numLanes]lane {
	n, flushCap, scrubCap := cfg.MaxBackgroundCompactions, 0, 0
	if cfg.SeparateFlushThread {
		flushCap = 1
	}
	if cfg.ScrubInterval > 0 {
		scrubCap = 1
	}
	return [numLanes]lane{
		laneFlush:   {first: 0, slots: make([]bool, flushCap)},
		laneValueGC: {first: n + 1, slots: make([]bool, 1)},
		lanePool:    {first: 1, slots: make([]bool, n)},
		laneScrub:   {first: n + 2, slots: make([]bool, scrubCap)},
	}
}

// take allocates the lane's smallest free worker ID; the scheduler calls
// it only below capacity.
func (l *lane) take() int {
	i := 0
	for l.slots[i] {
		i++
	}
	l.slots[i] = true
	l.busy++
	return l.first + i
}

func (l *lane) put(worker int) {
	l.slots[worker-l.first] = false
	l.busy--
}

// maybeScheduleWorkLocked is the scheduler: called with mu held whenever
// work may have appeared, it tops every lane up to its capacity with
// picked-and-claimed jobs. Picking happens here, under mu, so a worker is
// only spawned with conflict-free work in hand — repeated calls while the
// lanes are full spawn nothing. This is the package's only background go
// statement, and running is the one drain counter Close and WaitIdle wait
// on.
func (db *DB) maybeScheduleWorkLocked() {
	if db.bgStoppedLocked() {
		return
	}
	for l := range db.lanes {
		ln := &db.lanes[l]
		for ln.busy < len(ln.slots) {
			j := db.pickLocked(l)
			if j == nil {
				break
			}
			db.running++
			w := ln.take()
			//boltvet:goroutine running -- decremented by runLane on exit; Close and WaitIdle drain on it
			go db.runLane(l, w, j)
		}
	}
}

// runLane is one lane worker: it runs the job it was spawned with, then
// keeps picking from its lane until nothing is left or background work
// stops.
func (db *DB) runLane(l, worker int, j *job) {
	db.mu.Lock()
	defer db.mu.Unlock()
	_ = db.runJobsLocked(worker, j, func() *job { return db.pickLocked(l) }) //boltvet:ignore errflow -- retryLocked has already degraded the engine or stopped the lane, and the job's end event carries the error
	db.lanes[l].put(worker)
	db.running--
	db.cond.Broadcast()
}

// runForegroundLocked runs the jobs next returns on the caller's
// goroutine, through the same envelope, until next returns nil. The first
// failure is returned to the caller, never retried. The jobs count toward
// the drain counter, so Close and WaitIdle wait for them too.
func (db *DB) runForegroundLocked(next func() *job) error {
	db.running++
	err := db.runJobsLocked(manualWorkerID, next(), next)
	db.running--
	db.cond.Broadcast()
	return err
}

// runJobsLocked runs j, then each job next returns, until next returns nil
// or background work stops; a job picked but not run gives its claim back.
// Background failures go through the failure policy (retryLocked).
func (db *DB) runJobsLocked(worker int, j *job, next func() *job) error {
	for ; j != nil; j = next() {
		if db.bgStoppedLocked() {
			db.releaseLocked(j)
			return nil
		}
		err := db.runJobLocked(j, worker)
		switch {
		case worker == manualWorkerID:
			if err != nil {
				return err
			}
		case err == nil:
			db.recoverFaultLocked(j.kind)
		case !db.retryLocked(j.kind, err):
			return err
		}
	}
	return nil
}

// runJobLocked is the envelope every job runs in. Called with mu held; mu
// is released for the event emissions and inside the run function's I/O.
// A failed job still reports its end event, with Err set.
func (db *DB) runJobLocked(j *job, worker int) error {
	db.nextJobID++
	id := db.nextJobID
	begin := time.Now()
	fsyncs := db.met.Fsyncs.Load()
	types := jobEvents[j.kind]
	if types[0] != 0 {
		e := j.start
		e.Type, e.Job, e.Worker = types[0], id, worker
		db.mu.Unlock()
		db.ev.Emit(e)
		db.mu.Lock()
	}
	var err error
	switch j.kind {
	case jobFlush:
		err = db.flushLocked(j)
	case jobCompaction:
		err = db.compactLocked(j)
	case jobValueGC:
		err = db.valueGCPassLocked(j)
	case jobScrub:
		err = db.scrubLocked(j)
	}
	if err == nil {
		db.verifyInvariantsLocked()
		db.maybeScheduleWorkLocked()
	}
	db.releaseLocked(j)
	// After the release, so a scrub pass's version pin no longer holds
	// anything back; before the end event, so the job's reclaims precede it.
	ops := db.takeReclaimsLocked(false)
	db.mu.Unlock()
	db.execReclaims(ops)
	e := j.end
	e.Type, e.Job, e.Worker = types[1], id, worker
	e.Dur, e.Barriers = time.Since(begin), db.met.Fsyncs.Load()-fsyncs
	if err != nil {
		e.Err = err.Error()
	}
	db.ev.Emit(e)
	for _, a := range j.after {
		db.ev.Emit(a)
	}
	db.mu.Lock()
	db.cond.Broadcast()
	return err
}

// pickLocked picks and claims lane l's next job, or returns nil.
func (db *DB) pickLocked(l int) *job {
	switch l {
	case laneFlush:
		return db.flushJobLocked()
	case laneValueGC:
		if db.manualActive {
			return nil
		}
		return db.valueGCJobLocked(db.cfg.VLogGCGarbageRatio)
	case lanePool:
		if !db.cfg.SeparateFlushThread {
			if j := db.flushJobLocked(); j != nil {
				return j
			}
		}
		return db.reserveLocked(jobCompaction, db.pickCompactionLocked())
	default:
		if !db.scrubDue {
			return nil
		}
		db.scrubDue = false
		return db.scrubJobLocked()
	}
}

// flushJobLocked claims the pending flush, if no worker holds it yet.
func (db *DB) flushJobLocked() *job {
	if db.imm == nil || db.flushActive {
		return nil
	}
	db.flushActive = true
	return &job{kind: jobFlush, start: events.Event{BytesIn: db.imm.ApproximateSize()}}
}

// valueGCJobLocked picks the sealed segment with the most garbage at or
// above ratio, as its GC cursor sees it. It requires an active value-log
// writer: re-puts have nowhere to go without one.
func (db *DB) valueGCJobLocked(ratio float64) *job {
	if db.vlogW == nil {
		return nil
	}
	env := compaction.Env{InFlight: db.inflight}
	return db.reserveLocked(jobValueGC, db.picker.PickValueGC(db.vs.Current(), env, db.vlogW.Seg(), ratio, db.vlogCursorsLocked()))
}

// reserveLocked wraps c, if any, as a job of kind k, reserving its
// footprint in the in-flight registry so concurrent picks stay
// conflict-free.
func (db *DB) reserveLocked(k jobKind, c *compaction.Compaction) *job {
	if c == nil {
		return nil
	}
	j := &job{kind: k, c: c, r: db.inflight.Reserve(c)}
	if k == jobCompaction {
		j.start = events.Event{Level: c.Level, OutputLevel: c.OutputLevel,
			Inputs: len(c.Inputs) + len(c.NextInputs), BytesIn: c.InputBytes(), Reason: c.Reason}
	}
	return j
}

// releaseLocked gives back what j claimed when it was picked. A scrub
// pass re-arms the background scrub timer: the next pass is due one
// interval after this one ended.
func (db *DB) releaseLocked(j *job) {
	db.inflight.Release(j.r)
	switch j.kind {
	case jobFlush:
		db.flushActive = false
	case jobScrub:
		j.v.Unref()
		if db.scrubTimer != nil && !db.closed {
			db.scrubTimer.Reset(db.cfg.ScrubInterval)
		}
	}
}
