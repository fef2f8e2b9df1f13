package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// fastRetryConfig shrinks the backoff so fault tests run in milliseconds.
func fastRetryConfig(base Config) Config {
	base.BgRetryBaseDelay = 100 * time.Microsecond
	base.BgRetryMaxDelay = time.Millisecond
	return base
}

// isSST matches table files (both legacy and compaction-file layouts use
// the .sst suffix).
func isSST(name string) bool { return strings.HasSuffix(name, ".sst") }

// fillToFlush writes enough sequential data to force at least one memtable
// switch and flush.
func fillToFlush(t *testing.T, db *DB, tag string) {
	t.Helper()
	val := []byte(strings.Repeat(tag+"-", 64)) // ~320 bytes per value
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("%s-%05d", tag, i)), val); err != nil {
			t.Fatalf("Put %s-%05d: %v", tag, i, err)
		}
	}
}

// fillUntilDegraded is fillToFlush for faulty-storage tests: the engine may
// degrade to read-only mid-fill, which stops the fill without failing the
// test. Any other Put error still fails.
func fillUntilDegraded(t *testing.T, db *DB, tag string) {
	t.Helper()
	val := []byte(strings.Repeat(tag+"-", 64))
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("%s-%05d", tag, i)), val); err != nil {
			if errors.Is(err, ErrReadOnlyMode) {
				return
			}
			t.Fatalf("Put %s-%05d: %v", tag, i, err)
		}
	}
}

func TestTransientSyncFaultRecovered(t *testing.T) {
	for _, cfgName := range []string{"leveldb", "bolt", "separate-flush"} {
		t.Run(cfgName, func(t *testing.T) {
			cfg := testConfig()
			switch cfgName {
			case "bolt":
				cfg = boltTestConfig()
			case "separate-flush":
				// The fault lands on the dedicated flush lane's first table sync.
				cfg.SeparateFlushThread = true
			}
			efs := vfs.NewErrorFS(vfs.NewMem())
			db := openTestDB(t, efs, fastRetryConfig(cfg))
			defer db.Close()

			// Fail the first table-file sync after arming, once.
			efs.SetInjector(vfs.FilterName(isSST,
				vfs.FailNth(vfs.OpSync, efs.OpCount(vfs.OpSync)+1, false)))

			fillToFlush(t, db, "transient")
			if err := db.WaitIdle(); err != nil {
				t.Fatalf("WaitIdle after transient fault = %v, want nil", err)
			}

			if ro, cause := db.ReadOnly(); ro {
				t.Fatalf("transient fault degraded to read-only: %v", cause)
			}
			m := db.Metrics()
			if m.BgRetries.Load() == 0 {
				t.Fatal("no retry was counted for the injected fault")
			}
			if m.BgRecoveredFaults.Load() == 0 {
				t.Fatal("no recovery was counted after the retry succeeded")
			}
			if m.ReadOnlyDegradations.Load() != 0 {
				t.Fatal("degradation counted for a recovered fault")
			}

			// The data must be fully readable.
			got, err := db.Get([]byte("transient-00000"), nil)
			if err != nil || !strings.HasPrefix(string(got), "transient-") {
				t.Fatalf("Get after recovery = %q, %v", got, err)
			}
		})
	}
}

// TestCountersAgreeWithEvents: the completed-work counters count commits,
// not attempts. A flush and a compaction that each fail one table sync and
// succeed on retry are counted once, like their error-free end events.
func TestCountersAgreeWithEvents(t *testing.T) {
	efs := vfs.NewErrorFS(vfs.NewMem())
	var armed atomic.Bool
	efs.SetInjector(vfs.FilterName(isSST, vfs.InjectorFunc(func(op vfs.Op, name string, _ int64) error {
		if op == vfs.OpSync && armed.CompareAndSwap(true, false) {
			return &vfs.InjectedError{Op: op, Name: name}
		}
		return nil
	})))
	var mu sync.Mutex
	done, failed := map[events.Type]int64{}, map[events.Type]int64{}
	cfg := fastRetryConfig(boltTestConfig())
	cfg.MaxBackgroundCompactions = -1 // one job at a time: an armed sync is the job's own
	cfg.EventListener = func(e events.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch e.Type {
		case events.TypeFlushStart:
			armed.Store(failed[events.TypeFlushEnd] == 0)
		case events.TypeCompactionStart:
			armed.Store(failed[events.TypeCompactionEnd] == 0)
		case events.TypeFlushEnd, events.TypeCompactionEnd:
			armed.Store(false)
		}
		switch {
		case e.Err != "":
			failed[e.Type]++
		case e.Type == events.TypeHolePunch || e.Type == events.TypeHolePunchFallback:
			done[e.Type] += int64(e.Inputs) // one event per punch call, Inputs ranges
		default:
			done[e.Type]++
		}
	}
	db := openTestDB(t, efs, cfg)
	defer db.Close()
	for round := 0; round < 6; round++ {
		fillToFlush(t, db, fmt.Sprintf("agree%d", round))
		if err := db.WaitIdle(); err != nil {
			t.Fatal(err)
		}
	}

	s := db.Metrics().Snapshot()
	mu.Lock()
	defer mu.Unlock()
	if failed[events.TypeFlushEnd] == 0 || failed[events.TypeCompactionEnd] == 0 {
		t.Fatalf("the test needs a failed flush and a failed compaction; failed: %v", failed)
	}
	for _, c := range []struct {
		name    string
		counted int64
		end     events.Type
	}{
		{"flushes", s.MemtableFlushes, events.TypeFlushEnd},
		{"compactions", s.Compactions, events.TypeCompactionEnd},
		{"hole punches", s.HolePunches, events.TypeHolePunch},
		{"punch fallbacks", s.HolePunchFallbacks, events.TypeHolePunchFallback},
	} {
		if c.counted != done[c.end] {
			t.Errorf("%s: %d counted, %d %s events without error", c.name, c.counted, done[c.end], c.end)
		}
	}
}

func TestPermanentSyncFaultDegradesToReadOnly(t *testing.T) {
	efs := vfs.NewErrorFS(vfs.NewMem())
	db := openTestDB(t, efs, fastRetryConfig(testConfig()))
	defer db.Close()

	// Commit some data durably before the fault.
	if err := db.Put([]byte("pre-fault"), []byte("value")); err != nil {
		t.Fatal(err)
	}

	efs.SetInjector(vfs.FilterName(isSST,
		vfs.FailNth(vfs.OpSync, efs.OpCount(vfs.OpSync)+1, true)))

	fillUntilDegraded(t, db, "doomed")
	err := db.WaitIdle()
	if !errors.Is(err, ErrReadOnlyMode) {
		t.Fatalf("WaitIdle = %v, want ErrReadOnlyMode", err)
	}
	var inj *vfs.InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("degradation error %v does not wrap the injected cause", err)
	}

	ro, cause := db.ReadOnly()
	if !ro || cause == nil {
		t.Fatalf("ReadOnly() = %v, %v; want true with cause", ro, cause)
	}

	// Writes fail with the typed error; errors.Is matches the sentinel.
	werr := db.Put([]byte("rejected"), []byte("x"))
	if !errors.Is(werr, ErrReadOnlyMode) {
		t.Fatalf("Put in read-only mode = %v, want ErrReadOnlyMode", werr)
	}
	var roErr *ReadOnlyError
	if !errors.As(werr, &roErr) || roErr.Cause == nil {
		t.Fatalf("Put error %v is not a *ReadOnlyError with cause", werr)
	}
	if cerr := db.CompactRange(nil, nil); !errors.Is(cerr, ErrReadOnlyMode) {
		t.Fatalf("CompactRange in read-only mode = %v, want ErrReadOnlyMode", cerr)
	}

	// Reads keep serving the committed state.
	if got, gerr := db.Get([]byte("pre-fault"), nil); gerr != nil || string(got) != "value" {
		t.Fatalf("Get in read-only mode = %q, %v", got, gerr)
	}
	// Memtable contents acknowledged before degradation stay readable too.
	if got, gerr := db.Get([]byte("doomed-00000"), nil); gerr != nil || len(got) == 0 {
		t.Fatalf("Get of pre-degradation write = %q, %v", got, gerr)
	}

	m := db.Metrics()
	if m.ReadOnlyDegradations.Load() != 1 {
		t.Fatalf("ReadOnlyDegradations = %d, want 1", m.ReadOnlyDegradations.Load())
	}
}

// TestInvariantViolationDegrades: a layout violation the VerifyInvariants
// check finds after a job is the same failure state as a permanent fault —
// WaitIdle and writes fail with ErrReadOnlyMode wrapping the violation,
// and reads keep serving.
func TestInvariantViolationDegrades(t *testing.T) {
	cfg := testConfig() // VerifyInvariants on
	cfg.L0CompactionTrigger = 100
	cfg.L0SlowdownTrigger, cfg.L0StopTrigger = 0, 0
	db := openTestDB(t, vfs.NewMem(), cfg)
	defer db.Close()
	fillToFlush(t, db, "live")
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	// Open the tables' readers now: they stay cached, so reads survive the
	// in-memory damage below.
	for i := 0; i < 200; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("live-%05d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}

	db.mu.Lock()
	victim := db.vs.Current().Levels[0][0]
	victim.Size = 0
	db.mu.Unlock()
	fillUntilDegraded(t, db, "next")
	err := db.WaitIdle()
	if !errors.Is(err, ErrReadOnlyMode) || !strings.Contains(err.Error(), fmt.Sprintf("table %d has size 0", victim.Num)) {
		t.Fatalf("WaitIdle = %v, want ErrReadOnlyMode wrapping the size violation", err)
	}
	if ro, cause := db.ReadOnly(); !ro || cause == nil {
		t.Fatalf("ReadOnly() = %v, %v; want true with the violation", ro, cause)
	}
	if werr := db.Put([]byte("rejected"), []byte("x")); !errors.Is(werr, ErrReadOnlyMode) {
		t.Fatalf("Put after the violation = %v, want ErrReadOnlyMode", werr)
	}
	for _, key := range []string{"live-00000", "live-00199", "next-00000"} {
		if got, gerr := db.Get([]byte(key), nil); gerr != nil || len(got) == 0 {
			t.Fatalf("Get(%s) after the violation = %q, %v", key, got, gerr)
		}
	}
}

func TestRetryLimitDisabledDegradesImmediately(t *testing.T) {
	cfg := fastRetryConfig(testConfig())
	cfg.BgRetryLimit = -1 // no retries
	efs := vfs.NewErrorFS(vfs.NewMem())
	db := openTestDB(t, efs, cfg)
	defer db.Close()

	efs.SetInjector(vfs.FilterName(isSST,
		vfs.FailNth(vfs.OpSync, efs.OpCount(vfs.OpSync)+1, false)))
	fillUntilDegraded(t, db, "noretry")
	if err := db.WaitIdle(); !errors.Is(err, ErrReadOnlyMode) {
		t.Fatalf("WaitIdle = %v, want immediate read-only degradation", err)
	}
	if got := db.Metrics().BgRetries.Load(); got != 0 {
		t.Fatalf("BgRetries = %d with retries disabled", got)
	}
}

func TestPunchHoleFallbackRecordsDeadRanges(t *testing.T) {
	// Every punch reports the backend as incapable; the data itself is
	// untouched (the injector fails the op before it reaches MemFS).
	noPunch := vfs.InjectorFunc(func(op vfs.Op, name string, n int64) error {
		if op == vfs.OpPunchHole {
			return fmt.Errorf("backend: %w", vfs.ErrPunchHoleUnsupported)
		}
		return nil
	})
	efs := vfs.NewErrorFS(vfs.NewMem())
	efs.SetInjector(noPunch)

	db := openTestDB(t, efs, boltTestConfig()) // punches need compaction files
	defer db.Close()

	// Drive the reclaim path directly with a synthetic compaction file so
	// the dead-range bookkeeping is observable deterministically (in a real
	// workload the ranges vanish as soon as the whole file dies).
	const phys, sz = uint64(90001), int64(4096)
	f, err := db.fs.Create(manifest.TableFileName(phys))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 2*sz)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Two logical tables share the file; the first dies now.
	reclaimTables := func(fs ...*manifest.FileMeta) {
		db.mu.Lock()
		for _, f := range fs {
			db.reclaims = append(db.reclaims, reclaim{table: f})
		}
		ops := db.takeReclaimsLocked(false)
		db.mu.Unlock()
		db.execReclaims(ops)
	}
	db.mu.Lock()
	db.physRefs[phys] = 2
	db.mu.Unlock()
	reclaimTables(&manifest.FileMeta{Num: 90100, PhysNum: phys, Offset: 0, Size: sz})
	db.mu.Lock()
	dead := int64(0)
	for _, r := range db.deadRanges[phys] {
		dead += r.size
	}
	db.mu.Unlock()

	m := db.Metrics()
	if m.HolePunchFallbacks.Load() != 1 {
		t.Fatalf("HolePunchFallbacks = %d, want 1", m.HolePunchFallbacks.Load())
	}
	if m.HolePunches.Load() != 0 {
		t.Fatalf("HolePunches = %d, want 0 when punching is unsupported", m.HolePunches.Load())
	}
	if dead != sz || db.DeadRangeBytes() != sz {
		t.Fatalf("dead range bytes = %d (accessor %d), want %d", dead, db.DeadRangeBytes(), sz)
	}

	// The second logical table dies too: the whole file is unlinked and its
	// dead-range debt is forgotten with it.
	reclaimTables(&manifest.FileMeta{Num: 90101, PhysNum: phys, Offset: sz, Size: sz})
	if db.DeadRangeBytes() != 0 {
		t.Fatalf("DeadRangeBytes = %d after file removal, want 0", db.DeadRangeBytes())
	}
	if _, err := db.fs.Stat(manifest.TableFileName(phys)); err == nil {
		t.Fatal("fully dead physical file was not removed")
	}

	// And an end-to-end sanity pass: a real workload on the non-punching
	// backend neither fails nor degrades.
	for round := 0; round < 3; round++ {
		fillToFlush(t, db, fmt.Sprintf("punch%d", round))
		if err := db.WaitIdle(); err != nil {
			t.Fatalf("WaitIdle round %d = %v", round, err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatalf("CompactRange = %v", err)
	}
	if got, err := db.Get([]byte("punch0-00000"), nil); err != nil || len(got) == 0 {
		t.Fatalf("Get after punch fallbacks = %q, %v", got, err)
	}

	// Value-log reclaim goes through the same punch routine: a segment GC
	// collects in chunks falls back exactly like a table range, counted and
	// traced, and needs no dead-range record (the GC watermark has it).
	cfg := vlogTestConfig() // no compaction files: every fallback is a segment's
	cfg.VLogGCGarbageRatio = 1.0
	cfg.VLogGCChunkBytes = 2 << 10
	var fallbackEvents int
	var lmu sync.Mutex
	cfg.EventListener = func(e events.Event) {
		if e.Type == events.TypeHolePunchFallback {
			lmu.Lock()
			fallbackEvents += e.Inputs
			lmu.Unlock()
		}
	}
	vfs2 := vfs.NewErrorFS(vfs.NewMem())
	vfs2.SetInjector(noPunch)
	vdb := openTestDB(t, vfs2, cfg)
	defer vdb.Close()
	putPartialGarbage(t, vdb, "vkey") // a whole segment is unlinked, not punched
	if err := vdb.CompactValueLog(); err != nil {
		t.Fatal(err)
	}
	lmu.Lock()
	defer lmu.Unlock()
	if got := vdb.Metrics().HolePunchFallbacks.Load(); got == 0 || got != int64(fallbackEvents) {
		t.Fatalf("value-log fallbacks: %d counted, %d traced", got, fallbackEvents)
	}
	if vdb.DeadRangeBytes() != 0 {
		t.Fatalf("value-log fallbacks recorded %d dead-range bytes", vdb.DeadRangeBytes())
	}
}

func TestHolePunchSuccessCounted(t *testing.T) {
	db := openTestDB(t, vfs.NewMem(), boltTestConfig())
	defer db.Close()
	for round := 0; round < 6; round++ {
		fillToFlush(t, db, fmt.Sprintf("hp%d", round))
		if err := db.WaitIdle(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.HolePunches.Load() == 0 {
		t.Skip("workload produced no punches at this scale")
	}
	if m.HolePunchFallbacks.Load() != 0 {
		t.Fatalf("MemFS punches fell back: %d", m.HolePunchFallbacks.Load())
	}
	if db.DeadRangeBytes() != 0 {
		t.Fatalf("DeadRangeBytes = %d on a punching backend", db.DeadRangeBytes())
	}
}

func TestCompactRangeSurfacesDegradation(t *testing.T) {
	efs := vfs.NewErrorFS(vfs.NewMem())
	db := openTestDB(t, efs, fastRetryConfig(testConfig()))
	defer db.Close()

	fillToFlush(t, db, "seed")
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	// Fail every sync from now on: the manual compaction's first commit (or
	// flush) degrades the engine, and CompactRange must report it.
	efs.SetInjector(vfs.FailNth(vfs.OpSync, efs.OpCount(vfs.OpSync)+1, true))
	fillUntilDegraded(t, db, "more")
	err := db.CompactRange(nil, nil)
	if err == nil {
		t.Fatal("CompactRange = nil after permanent sync faults")
	}
	if !errors.Is(err, ErrReadOnlyMode) {
		// The manual compaction itself may hit the fault before the
		// background degradation lands; either way the error surfaces.
		var inj *vfs.InjectedError
		if !errors.As(err, &inj) {
			t.Fatalf("CompactRange = %v, want read-only or injected fault", err)
		}
	}
}

func TestBackoffDelayShape(t *testing.T) {
	base, cap := 2*time.Millisecond, 250*time.Millisecond
	for attempt := 1; attempt <= 40; attempt++ {
		d := backoffDelay(base, cap, attempt)
		if d <= 0 {
			t.Fatalf("attempt %d: non-positive delay %v", attempt, d)
		}
		if d > cap+cap/4 {
			t.Fatalf("attempt %d: delay %v above cap+jitter", attempt, d)
		}
	}
	// Attempt 1 stays near base even with jitter.
	if d := backoffDelay(base, cap, 1); d > 2*base {
		t.Fatalf("first attempt delay %v too large for base %v", d, base)
	}
}

func TestErrIsTransientClassification(t *testing.T) {
	transient := &vfs.InjectedError{Op: vfs.OpSync, Name: "x"}
	if !errIsTransient(fmt.Errorf("core: flush: %w", transient)) {
		t.Fatal("wrapped transient injected error classified fatal")
	}
	permanent := &vfs.InjectedError{Op: vfs.OpSync, Name: "x", Permanent: true}
	if errIsTransient(fmt.Errorf("core: flush: %w", permanent)) {
		t.Fatal("permanent injected error classified transient")
	}
	if errIsTransient(fmt.Errorf("core: flush commit: %w", manifest.ErrCorrupt)) {
		t.Fatal("corruption classified transient")
	}
	if !errIsTransient(errors.New("disk hiccup")) {
		t.Fatal("unknown error must default to transient (bounded by retries)")
	}
}

// shortWriteFS makes one armed table-file Write come up short: half the
// bytes reach the file and no error is returned — the case only the
// caller's length check can catch.
type shortWriteFS struct {
	vfs.FS
	armed atomic.Bool
	hit   atomic.Value // string: the file the short write landed in
}

func (fs *shortWriteFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil || !isSST(name) {
		return f, err
	}
	return &shortWriteFile{File: f, fs: fs, name: name}, nil
}

type shortWriteFile struct {
	vfs.File
	fs   *shortWriteFS
	name string
}

func (f *shortWriteFile) Write(p []byte) (int, error) {
	if f.fs.armed.CompareAndSwap(true, false) {
		f.fs.hit.Store(f.name)
		return f.File.Write(p[:len(p)/2])
	}
	return f.File.Write(p)
}

// TestTableWriteFaultAtFinish: a table reaches its file in one Write at
// Finish, so that is where a write fault now lands. Failed or short, it
// must surface as a background failure, leave the MANIFEST without any
// table of the abandoned file, and be absorbed by the ordinary retry.
func TestTableWriteFaultAtFinish(t *testing.T) {
	for _, mode := range []string{"failed", "short"} {
		t.Run(mode, func(t *testing.T) {
			mem := vfs.NewMem()
			efs := vfs.NewErrorFS(mem)
			fs := &shortWriteFS{FS: efs}
			cfg := fastRetryConfig(boltTestConfig())
			db := openTestDB(t, fs, cfg)
			fillToFlush(t, db, "before")
			if err := db.WaitIdle(); err != nil {
				t.Fatal(err)
			}

			var failed atomic.Value // string: the file whose Write was failed
			if mode == "short" {
				fs.armed.Store(true)
			} else {
				nth := efs.OpCount(vfs.OpWrite)
				efs.SetInjector(vfs.FilterName(isSST, vfs.InjectorFunc(func(op vfs.Op, name string, n int64) error {
					if op != vfs.OpWrite || n <= nth || failed.Load() != nil {
						return nil
					}
					failed.Store(name)
					return &vfs.InjectedError{Op: op, Name: name}
				})))
			}
			fillToFlush(t, db, "after")
			if err := db.WaitIdle(); err != nil {
				t.Fatalf("WaitIdle after a %s table write = %v, want nil", mode, err)
			}
			victim, _ := failed.Load().(string)
			if mode == "short" {
				victim, _ = fs.hit.Load().(string)
			}
			if victim == "" {
				t.Fatal("the fault never fired")
			}
			m := db.Metrics()
			if m.BgRetries.Load() == 0 || m.BgRecoveredFaults.Load() == 0 {
				t.Fatalf("retries %d, recovered %d: the fault did not go through the retry path",
					m.BgRetries.Load(), m.BgRecoveredFaults.Load())
			}
			if ro, cause := db.ReadOnly(); ro {
				t.Fatalf("degraded to read-only: %v", cause)
			}

			// Nothing of the abandoned file is installed, before or after a
			// reopen (which replays the MANIFEST).
			_, victimNum, _ := manifest.ParseFileName(victim)
			checkNotInstalled := func(db *DB) {
				t.Helper()
				db.mu.Lock()
				defer db.mu.Unlock()
				for level, files := range db.vs.Current().Levels {
					for _, f := range files {
						if f.PhysNum == victimNum {
							t.Fatalf("L%d table %d lives in %s, whose write failed", level, f.Num, victim)
						}
					}
				}
			}
			checkNotInstalled(db)
			if err := db.Scrub(); err != nil {
				t.Fatal(err)
			}
			if err := db.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = openTestDB(t, mem, cfg)
			defer db.Close()
			checkNotInstalled(db)
			for _, tag := range []string{"before", "after"} {
				for i := 0; i < 200; i += 13 {
					key := fmt.Sprintf("%s-%05d", tag, i)
					if got, err := db.Get([]byte(key), nil); err != nil || !strings.HasPrefix(string(got), tag+"-") {
						t.Fatalf("Get %s = %q, %v", key, got, err)
					}
				}
			}
		})
	}
}
