// Package events implements the engine's structured event trace: a
// fixed-size ring buffer of typed events (flush, compaction, stall, WAL
// rotation, hole punch, background-error handling) plus an optional
// synchronous listener callback in the style of RocksDB's EventListener.
//
// The design constraints come from the write and read hot paths:
//
//   - Emit performs no allocation: the ring is preallocated and Event is a
//     plain value struct, so recording an event costs one short critical
//     section and a few stores.
//   - The listener is invoked with NO lock held — neither the ring's own
//     mutex nor (by the emitters' contract in internal/core) the engine
//     mutex. A listener may therefore call back into the database, or into
//     Log.Events, without deadlocking.
//
// Events describe what the paper measures: barriers per compaction, bytes
// between barriers, stall causes, settled promotions, and hole-punch
// reclamation, each stamped with a wall-clock time and a monotonic
// sequence number so external tools can order and diff them.
package events

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Type identifies what an Event describes.
type Type uint8

// The event types emitted by internal/core.
const (
	// TypeFlushStart marks the start of a memtable flush; BytesIn is the
	// memtable's approximate size.
	TypeFlushStart Type = iota + 1
	// TypeFlushEnd marks a flush's end: Outputs tables, BytesOut table
	// bytes, Barriers fsyncs paid, Dur wall time; Err is set when it
	// failed and committed nothing.
	TypeFlushEnd
	// TypeCompactionStart marks a picked compaction: Level/OutputLevel,
	// Inputs tables (both levels), BytesIn input bytes, Reason the picker's
	// cause (size, seek, manual).
	TypeCompactionStart
	// TypeCompactionEnd marks a compaction's end with its outcome:
	// Outputs tables, BytesOut bytes written, Barriers fsyncs paid, Dur
	// wall time; Err is set when it failed and committed nothing.
	TypeCompactionEnd
	// TypeSettledPromotion marks tables promoted without rewrite by a
	// settled compaction; Outputs is the promoted-table count.
	TypeSettledPromotion
	// TypeHolePunch marks one punch call reclaiming a run of adjacent dead
	// ranges barrier-free (logical SSTables or value-log payloads); File is
	// the physical file, Inputs the ranges, BytesOut the punched bytes.
	TypeHolePunch
	// TypeHolePunchFallback marks a punch the backend could not perform;
	// a table's run is recorded as dead-but-allocated space debt instead.
	TypeHolePunchFallback
	// TypeStallBegin marks a writer entering a governor stall; Reason names
	// the cause (l0-slowdown, memtable-full, l0-stop).
	TypeStallBegin
	// TypeStallEnd marks the stall's end; Dur is the stalled time.
	TypeStallEnd
	// TypeWALRotation marks a memtable switch to a fresh WAL; File is the
	// new log number.
	TypeWALRotation
	// TypeBgRetry marks a failed background job (flush, compaction, value
	// GC, scrub) being retried; Err is the failure, Dur the backoff delay.
	TypeBgRetry
	// TypeBgDegraded marks the engine entering read-only mode; Err is the
	// unrecoverable cause.
	TypeBgDegraded
	// TypeScrubStart marks the start of one background integrity pass;
	// Inputs is the table count the pass will walk, BytesIn their bytes.
	TypeScrubStart
	// TypeScrubEnd marks a pass's end: Inputs tables actually verified,
	// BytesIn bytes read, Outputs corruption findings, Dur wall time.
	TypeScrubEnd
	// TypeScrubFinding marks one corrupt table discovered by the scrubber;
	// File is the physical file, Level the table's level, Err the finding.
	TypeScrubFinding
	// TypeQuarantine marks a table entering quarantine; File is the
	// physical file, Level the table's level, Err the corruption cause.
	TypeQuarantine
	// TypeQuarantineClear marks a quarantined table salvaged and dropped:
	// Outputs is the rewritten-table count, BytesOut the salvaged bytes,
	// Inputs the skipped (unrecoverable) block count.
	TypeQuarantineClear
	// TypeConfigClamp marks an invalid (negative) configuration value
	// clamped to its default at Open; Reason names the knob and the
	// rejected value.
	TypeConfigClamp
	// TypeVLogRotation marks the active value-log segment being sealed and
	// replaced; File is the new segment number, BytesOut the sealed
	// segment's final size.
	TypeVLogRotation
	// TypeVLogGC marks the end of one value-GC chunk pass: File is the
	// segment, BytesIn the bytes scanned, BytesOut the bytes made
	// reclaimable (reclaimed once the next flush logs the pass), Outputs
	// the live records re-put, Dur the pass wall time, Barriers the fsyncs
	// paid (none of its own); zero bytes when the pass aborted, Err when
	// it failed.
	TypeVLogGC
	// TypeVLogGCStuck marks a value-log segment whose GC a rotted record
	// header blocks: File is the segment, BytesIn the offset of the
	// header, BytesOut the bytes left uncollected. The segment is no
	// longer picked.
	TypeVLogGCStuck
)

// String names the type.
func (t Type) String() string {
	switch t {
	case TypeFlushStart:
		return "flush-start"
	case TypeFlushEnd:
		return "flush-end"
	case TypeCompactionStart:
		return "compaction-start"
	case TypeCompactionEnd:
		return "compaction-end"
	case TypeSettledPromotion:
		return "settled-promotion"
	case TypeHolePunch:
		return "hole-punch"
	case TypeHolePunchFallback:
		return "hole-punch-fallback"
	case TypeStallBegin:
		return "stall-begin"
	case TypeStallEnd:
		return "stall-end"
	case TypeWALRotation:
		return "wal-rotation"
	case TypeBgRetry:
		return "bg-retry"
	case TypeBgDegraded:
		return "bg-degraded"
	case TypeScrubStart:
		return "scrub-start"
	case TypeScrubEnd:
		return "scrub-end"
	case TypeScrubFinding:
		return "scrub-finding"
	case TypeQuarantine:
		return "quarantine"
	case TypeQuarantineClear:
		return "quarantine-clear"
	case TypeConfigClamp:
		return "config-clamp"
	case TypeVLogRotation:
		return "vlog-rotation"
	case TypeVLogGC:
		return "vlog-gc"
	case TypeVLogGCStuck:
		return "vlog-gc-stuck"
	default:
		return fmt.Sprintf("event(%d)", uint8(t))
	}
}

// Event is one engine occurrence. Fields are interpreted per Type; unused
// fields are zero. Event is a plain value: emitting one allocates nothing.
type Event struct {
	// Seq is the event's position in the emission order, assigned by the
	// log starting at 1. Gaps never occur; a reader comparing Seq against
	// the log's TotalEmitted can tell how many events it missed.
	Seq uint64
	// Time is the event's wall-clock stamp (assigned at Emit when zero;
	// retroactively-emitted events carry the time the condition began).
	Time time.Time
	// Type says what happened.
	Type Type

	// Level / OutputLevel locate compactions and flushes in the tree.
	Level       int
	OutputLevel int
	// Inputs / Outputs count tables consumed and produced.
	Inputs  int
	Outputs int
	// BytesIn / BytesOut measure the data volume on each side.
	BytesIn  int64
	BytesOut int64
	// Barriers is the number of fsync barriers paid by the operation —
	// the paper's central cost metric.
	Barriers int64
	// Dur is the operation's wall time (or the stall/backoff duration).
	Dur time.Duration
	// File is the physical file or WAL number the event refers to.
	File uint64
	// Reason is a static cause tag (compaction reason, stall cause).
	Reason string
	// Err is the failure text for bg-retry / bg-degraded events and for
	// the end event of a failed job.
	Err string
	// Job is the engine-assigned, monotonically increasing ID shared by
	// the start and end events of one background job — flush, compaction,
	// value-GC pass, scrub pass — so interleaved parallel work can be
	// correlated. Zero means unnumbered.
	Job uint64
	// Worker identifies the lane worker that ran the job; IDs are unique
	// across lanes. With N = MaxBackgroundCompactions: 0 is the dedicated
	// flush lane (SeparateFlushThread), 1..N the compaction pool, N+1 the
	// value-GC lane, N+2 the scrub lane, and -1 foreground work
	// (CompactRange, CompactValueLog, Scrub). Only meaningful when
	// Job != 0.
	Worker int
}

// String renders one human-readable trace line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6d %s %-19s", e.Seq, e.Time.Format("15:04:05.000"), e.Type)
	switch e.Type {
	case TypeFlushStart:
		fmt.Fprintf(&b, " L0 in=%dB", e.BytesIn)
	case TypeFlushEnd:
		fmt.Fprintf(&b, " L0 out=%d tables %dB barriers=%d dur=%v",
			e.Outputs, e.BytesOut, e.Barriers, e.Dur.Round(time.Microsecond))
	case TypeCompactionStart:
		fmt.Fprintf(&b, " L%d->L%d in=%d tables %dB reason=%s",
			e.Level, e.OutputLevel, e.Inputs, e.BytesIn, e.Reason)
	case TypeCompactionEnd:
		fmt.Fprintf(&b, " L%d->L%d out=%d tables %dB barriers=%d dur=%v",
			e.Level, e.OutputLevel, e.Outputs, e.BytesOut, e.Barriers, e.Dur.Round(time.Microsecond))
	case TypeSettledPromotion:
		fmt.Fprintf(&b, " L%d->L%d promoted=%d", e.Level, e.OutputLevel, e.Outputs)
	case TypeHolePunch, TypeHolePunchFallback:
		fmt.Fprintf(&b, " phys=%d %dB", e.File, e.BytesOut)
	case TypeStallBegin:
		fmt.Fprintf(&b, " cause=%s", e.Reason)
	case TypeStallEnd:
		fmt.Fprintf(&b, " cause=%s dur=%v", e.Reason, e.Dur.Round(time.Microsecond))
	case TypeWALRotation:
		fmt.Fprintf(&b, " wal=%d", e.File)
	case TypeBgRetry:
		fmt.Fprintf(&b, " backoff=%v err=%s", e.Dur.Round(time.Millisecond), e.Err)
	case TypeBgDegraded:
		fmt.Fprintf(&b, " err=%s", e.Err)
	case TypeScrubStart:
		fmt.Fprintf(&b, " tables=%d %dB", e.Inputs, e.BytesIn)
	case TypeScrubEnd:
		fmt.Fprintf(&b, " tables=%d %dB findings=%d dur=%v",
			e.Inputs, e.BytesIn, e.Outputs, e.Dur.Round(time.Microsecond))
	case TypeScrubFinding:
		fmt.Fprintf(&b, " L%d phys=%d err=%s", e.Level, e.File, e.Err)
	case TypeQuarantine:
		fmt.Fprintf(&b, " L%d phys=%d err=%s", e.Level, e.File, e.Err)
	case TypeQuarantineClear:
		fmt.Fprintf(&b, " L%d out=%d tables %dB skipped-blocks=%d",
			e.Level, e.Outputs, e.BytesOut, e.Inputs)
	case TypeConfigClamp:
		fmt.Fprintf(&b, " %s", e.Reason)
	case TypeVLogRotation:
		fmt.Fprintf(&b, " vlog=%d sealed=%dB", e.File, e.BytesOut)
	case TypeVLogGC:
		fmt.Fprintf(&b, " vlog=%d scanned=%dB reclaimed=%dB reput=%d dur=%v",
			e.File, e.BytesIn, e.BytesOut, e.Outputs, e.Dur.Round(time.Microsecond))
	case TypeVLogGCStuck:
		fmt.Fprintf(&b, " vlog=%d at=%d stranded=%dB", e.File, e.BytesIn, e.BytesOut)
	}
	if e.Job != 0 {
		fmt.Fprintf(&b, " job=%d", e.Job)
		if e.Worker >= 0 {
			fmt.Fprintf(&b, " w=%d", e.Worker)
		}
		if e.Err != "" {
			fmt.Fprintf(&b, " err=%s", e.Err)
		}
	}
	return b.String()
}

// Listener receives every emitted event synchronously. It runs with no
// lock held; implementations may call back into the database but must be
// fast — a slow listener slows the background work that emits.
type Listener func(Event)

// Log is a bounded ring buffer of events. The zero value is not usable;
// call NewLog. All methods are safe for concurrent use.
type Log struct {
	// listener is immutable after NewLog and invoked outside mu.
	listener Listener //boltvet:guardedby none -- immutable after NewLog; invoked outside mu by design

	// mu guards the ring state below.
	mu  sync.Mutex
	buf []Event //boltvet:guardedby mu
	// next is the total number of events emitted; buf[(next-1)%len] is the
	// newest event.
	next uint64 //boltvet:guardedby mu
}

// NewLog returns a log retaining the last capacity events (minimum 1),
// delivering each to listener (may be nil) as it is emitted.
func NewLog(capacity int, listener Listener) *Log {
	if capacity < 1 {
		capacity = 1
	}
	return &Log{buf: make([]Event, capacity), listener: listener}
}

// Emit records e and delivers it to the listener. The ring append holds
// only the log's own mutex; the listener runs with no lock held. Emit
// allocates nothing.
func (l *Log) Emit(e Event) {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	l.mu.Lock()
	l.next++
	e.Seq = l.next
	l.buf[int((l.next-1)%uint64(len(l.buf)))] = e
	l.mu.Unlock()
	if l.listener != nil {
		l.listener(e)
	}
}

// Events returns the retained events, oldest first.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	capacity := uint64(len(l.buf))
	count := n
	if count > capacity {
		count = capacity
	}
	out := make([]Event, 0, count)
	for i := n - count; i < n; i++ {
		out = append(out, l.buf[int(i%capacity)])
	}
	return out
}

// TotalEmitted returns the number of events ever emitted (retained or
// overwritten).
func (l *Log) TotalEmitted() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Capacity returns the ring size.
func (l *Log) Capacity() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}
