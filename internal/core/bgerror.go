package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/manifest"
)

// ErrReadOnlyMode is the sentinel matched by errors.Is when the engine has
// degraded to read-only after background work exhausted its retry budget
// or hit a permanent storage fault. Reads keep serving the last committed
// state; writes and manual compactions fail with a ReadOnlyError wrapping
// this sentinel and the cause.
var ErrReadOnlyMode = errors.New("core: database is in read-only mode")

// ReadOnlyError is the typed error write paths return in read-only mode.
// errors.Is matches both ErrReadOnlyMode and the degradation cause.
type ReadOnlyError struct {
	// Cause is the background failure that forced the degradation.
	Cause error
}

// Error describes the degradation and its cause.
func (e *ReadOnlyError) Error() string {
	return fmt.Sprintf("core: database is in read-only mode: %v", e.Cause)
}

// Unwrap exposes both the sentinel and the cause chain.
func (e *ReadOnlyError) Unwrap() []error { return []error{ErrReadOnlyMode, e.Cause} }

// errIsTransient classifies a background failure. Faults that implement
// Transient() (the errorfs injection type, and any storage wrapper that
// models recoverable conditions) classify themselves; corruption is always
// fatal; anything else is assumed transient — the retry budget bounds the
// cost of guessing wrong, and a genuinely broken disk fails every retry
// and degrades anyway.
func errIsTransient(err error) bool {
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	return !errors.Is(err, manifest.ErrCorrupt)
}

// pendingErrLocked returns the read-only degradation as an error, or nil.
func (db *DB) pendingErrLocked() error {
	if db.roCause != nil {
		return &ReadOnlyError{Cause: db.roCause}
	}
	return nil
}

// bgStoppedLocked reports whether background work must stop: the DB is
// closed or read-only. Every wait loop exits on both, or it would hang.
func (db *DB) bgStoppedLocked() bool {
	return db.closed || db.roCause != nil
}

// retryLocked is the failure policy of a failed background job, keyed by
// its kind; it reports whether the worker should pick again. A compaction
// that found a corrupt table quarantines it (the next pick runs its
// salvage) instead of burning the retry budget; a transient error under
// the budget sleeps a capped exponential backoff (mu released, cut short
// by Close); anything else degrades the engine to read-only after a flush
// or compaction, and only stops a value-GC or scrub pass, whose failure
// leaves every record and table where it was.
func (db *DB) retryLocked(k jobKind, err error) bool {
	if db.bgStoppedLocked() {
		return false
	}
	if k == jobCompaction && db.quarantineCorruptLocked(err) {
		return true
	}
	fails := &db.fails[k]
	if !errIsTransient(err) || *fails >= db.cfg.BgRetryLimit {
		if k == jobFlush || k == jobCompaction {
			db.degradeLocked(err)
		}
		return false
	}
	*fails++
	db.met.BgRetries.Add(1)
	delay := backoffDelay(db.cfg.BgRetryBaseDelay, db.cfg.BgRetryMaxDelay, *fails)
	db.mu.Unlock()
	db.ev.Emit(events.Event{Type: events.TypeBgRetry, Dur: delay, Err: err.Error()})
	select {
	case <-db.stopc:
	case <-time.After(delay):
	}
	db.mu.Lock()
	return !db.bgStoppedLocked()
}

// degradeLocked enters read-only mode with a non-nil err as its cause,
// once, and wakes every wait loop; mu is released to emit the event.
func (db *DB) degradeLocked(err error) {
	if err == nil || db.roCause != nil {
		return
	}
	db.roCause = err
	db.met.ReadOnlyDegradations.Add(1)
	db.cond.Broadcast()
	db.mu.Unlock()
	db.ev.Emit(events.Event{Type: events.TypeBgDegraded, Err: err.Error()})
	db.mu.Lock()
}

// recoverFaultLocked resets kind k's consecutive-failure counter after a
// successful job, counting the recovery if any retries were spent.
func (db *DB) recoverFaultLocked(k jobKind) {
	if db.fails[k] > 0 {
		db.fails[k] = 0
		db.met.BgRecoveredFaults.Add(1)
	}
}

// backoffDelay is capped exponential backoff with ±25% jitter: attempt 1
// sleeps ~base, doubling up to maxDelay. Jitter decorrelates workers that
// hit the same fault.
func backoffDelay(base, maxDelay time.Duration, attempt int) time.Duration {
	d := maxDelay
	if attempt < 32 {
		if shifted := base << (attempt - 1); shifted > 0 && shifted < maxDelay {
			d = shifted
		}
	}
	if q := int64(d) / 4; q > 0 {
		d += time.Duration(rand.Int63n(2*q+1) - q)
	}
	return d
}

// ReadOnly reports whether the engine has degraded to read-only mode, and
// if so the background failure that caused it.
func (db *DB) ReadOnly() (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.roCause != nil, db.roCause
}

// deadRange is a byte range of a file whose data no reader needs: a hole
// punch reclaims it, or a backend that cannot punch counts it in
// deadBytes.
type deadRange struct {
	off, size int64
}

// DeadRangeBytes returns the total bytes recorded as dead but unreclaimed
// across all physical files (the space debt of punch-hole fallbacks).
func (db *DB) DeadRangeBytes() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	var total int64
	for _, n := range db.deadBytes {
		total += n
	}
	return total
}
