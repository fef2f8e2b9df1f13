package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// vlogTestConfig enables key-value separation at test scale: tiny
// segments so a handful of 1 KiB values forces rotation, and a low
// garbage ratio so GC triggers readily.
func vlogTestConfig() Config {
	c := testConfig()
	c.ValueThreshold = 256
	c.VLogSegmentBytes = 8 << 10
	c.VLogGCGarbageRatio = 0.3
	return c
}

func bigValue(key string, gen int) []byte {
	unit := fmt.Sprintf("%s/%d|", key, gen)
	return bytes.Repeat([]byte(unit), 1024/len(unit)+1)[:1024]
}

func countVLogFiles(t *testing.T, fs vfs.FS) int {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range names {
		if kind, _, ok := manifest.ParseFileName(name); ok && kind == manifest.KindValueLog {
			n++
		}
	}
	return n
}

func TestValueSeparationRoundtrip(t *testing.T) {
	fs := vfs.NewMem()
	db := openTestDB(t, fs, vlogTestConfig())
	defer db.Close()

	const n = 40
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("big%03d", i)
		if err := db.Put([]byte(key), bigValue(key, 0)); err != nil {
			t.Fatal(err)
		}
		if err := db.Put([]byte(fmt.Sprintf("small%03d", i)), []byte(fmt.Sprintf("inline-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	m := db.Metrics().Snapshot()
	if m.VLogAppends != n {
		t.Fatalf("VLogAppends = %d, want %d (only the large values separate)", m.VLogAppends, n)
	}

	check := func(stage string) {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("big%03d", i)
			got, err := db.Get([]byte(key), nil)
			if err != nil || !bytes.Equal(got, bigValue(key, 0)) {
				t.Fatalf("%s: Get(%s) = %d bytes, %v", stage, key, len(got), err)
			}
			sk := fmt.Sprintf("small%03d", i)
			got, err = db.Get([]byte(sk), nil)
			if err != nil || string(got) != fmt.Sprintf("inline-%d", i) {
				t.Fatalf("%s: Get(%s) = %q, %v", stage, sk, got, err)
			}
		}
	}
	check("memtable")

	// Through flush and full compaction the tree carries pointers; reads
	// must still transparently dereference.
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	check("compacted")

	if got := db.Metrics().Snapshot().VLogDerefs; got == 0 {
		t.Fatal("no VLogDerefs recorded for separated reads")
	}

	// Iterators dereference too.
	it := db.NewIter(nil)
	defer it.Close()
	seen := 0
	for ok := it.First(); ok; ok = it.Next() {
		if bytes.HasPrefix(it.Key(), []byte("big")) {
			if !bytes.Equal(it.Value(), bigValue(string(it.Key()), 0)) {
				t.Fatalf("iter %s: wrong value (%d bytes)", it.Key(), len(it.Value()))
			}
			seen++
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("iterator saw %d big keys, want %d", seen, n)
	}

	// Delete and overwrite behave normally over pointers.
	if err := db.Delete([]byte("big000")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("big000"), nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted separated key: %v", err)
	}
	if err := db.Put([]byte("big001"), []byte("now-small")); err != nil {
		t.Fatal(err)
	}
	if got, err := db.Get([]byte("big001"), nil); err != nil || string(got) != "now-small" {
		t.Fatalf("overwrite to inline: %q, %v", got, err)
	}
}

func TestValueSeparationReopen(t *testing.T) {
	fs := vfs.NewMem()
	cfg := vlogTestConfig()
	db := openTestDB(t, fs, cfg)
	const n = 30
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", i)
		if err := db.Put([]byte(key), bigValue(key, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Leave some values WAL-only (no flush) and some in tables.
	if err := db.CompactRange([]byte("key000"), []byte("key014")); err != nil {
		t.Fatal(err)
	}
	for i := n; i < n+5; i++ {
		key := fmt.Sprintf("key%03d", i)
		if err := db.Put([]byte(key), bigValue(key, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openTestDB(t, fs, cfg)
	defer db.Close()
	for i := 0; i < n+5; i++ {
		key := fmt.Sprintf("key%03d", i)
		got, err := db.Get([]byte(key), nil)
		if err != nil || !bytes.Equal(got, bigValue(key, 0)) {
			t.Fatalf("after reopen: Get(%s) = %d bytes, %v", key, len(got), err)
		}
	}
}

func TestValueGCReclaimsDeadSegments(t *testing.T) {
	fs := vfs.NewMem()
	cfg := vlogTestConfig()
	// Keep background GC out of the way so the reclamation below is
	// attributable to the explicit CompactValueLog call, and scan in
	// sub-segment chunks so partial passes exercise ranged hole punches
	// (a fully collected segment is unlinked instead).
	cfg.VLogGCGarbageRatio = 1.0
	cfg.VLogGCChunkBytes = 2 << 10
	db := openTestDB(t, fs, cfg)
	defer db.Close()

	const n = 40
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", i)
		if err := db.Put([]byte(key), bigValue(key, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	segsBefore := countVLogFiles(t, fs)
	if segsBefore < 3 {
		t.Fatalf("test needs several segments, got %d", segsBefore)
	}

	// Overwrite everything: every old record is garbage, but the bytes
	// are only *accounted* once compaction drops the dead pointers.
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", i)
		if err := db.Put([]byte(key), bigValue(key, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	segsBeforeGC := countVLogFiles(t, fs)

	if err := db.CompactValueLog(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	m := db.Metrics().Snapshot()
	if m.VLogGCPasses == 0 {
		t.Fatal("CompactValueLog ran no GC passes")
	}
	if m.VLogReclaimedBytes == 0 {
		t.Fatal("GC reclaimed no bytes despite fully dead segments")
	}
	if m.HolePunches == 0 {
		t.Fatal("partial GC passes punched no holes")
	}
	// Fully collected segments are unlinked outright: the population must
	// shrink by at least the dead generation-0 segments.
	if segsAfter := countVLogFiles(t, fs); segsAfter >= segsBeforeGC {
		t.Fatalf("segments: %d before GC, %d after — no dead segment removed", segsBeforeGC, segsAfter)
	}

	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", i)
		got, err := db.Get([]byte(key), nil)
		if err != nil || !bytes.Equal(got, bigValue(key, 1)) {
			t.Fatalf("after GC: Get(%s) = %d bytes, %v", key, len(got), err)
		}
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestValueGCDefersPunchForSnapshot(t *testing.T) {
	fs := vfs.NewMem()
	cfg := vlogTestConfig()
	cfg.VLogGCGarbageRatio = 1.0 // manual GC only
	db := openTestDB(t, fs, cfg)
	defer db.Close()

	const n = 24
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", i)
		if err := db.Put([]byte(key), bigValue(key, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}

	// The snapshot pins the generation-0 values across the GC below.
	snap := db.NewSnapshot()
	released := false
	defer func() {
		if !released {
			snap.Release()
		}
	}()

	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", i)
		if err := db.Put([]byte(key), bigValue(key, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactValueLog(); err != nil {
		t.Fatal(err)
	}

	// Whatever the GC reclaimed, the snapshot's reads must still resolve:
	// punches for records a pinned reader may dereference are deferred
	// until the pin is released.
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", i)
		got, err := db.Get([]byte(key), snap)
		if err != nil || !bytes.Equal(got, bigValue(key, 0)) {
			t.Fatalf("snapshot read after GC: Get(%s) = %d bytes, %v", key, len(got), err)
		}
	}
	snap.Release()
	released = true

	// Post-release the latest values remain readable.
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", i)
		got, err := db.Get([]byte(key), nil)
		if err != nil || !bytes.Equal(got, bigValue(key, 1)) {
			t.Fatalf("latest read after release: Get(%s) = %d bytes, %v", key, len(got), err)
		}
	}
}

func TestRepairRebuildsVLogSegments(t *testing.T) {
	fs := vfs.NewMem()
	cfg := vlogTestConfig()
	db := openTestDB(t, fs, cfg)
	const n = 20
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", i)
		if err := db.Put([]byte(key), bigValue(key, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Lose the metadata; Repair must re-register the value-log segments
	// alongside the salvaged tables or every separated value dangles.
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if kind, _, ok := manifest.ParseFileName(name); ok &&
			(kind == manifest.KindManifest || kind == manifest.KindCurrent) {
			if err := fs.Remove(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	report, err := Repair(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.VLogSegments == 0 {
		t.Fatal("repair registered no value-log segments")
	}

	db = openTestDB(t, fs, cfg)
	defer db.Close()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", i)
		got, err := db.Get([]byte(key), nil)
		if err != nil || !bytes.Equal(got, bigValue(key, 0)) {
			t.Fatalf("after repair: Get(%s) = %d bytes, %v", key, len(got), err)
		}
	}
}

// putGenerations writes gens generations of n separated values under
// prefix, each settled by CompactRange, so every generation but the last is
// value-log garbage the GC can collect.
func putGenerations(t *testing.T, db *DB, prefix string, gens, n int) {
	t.Helper()
	for gen := 0; gen < gens; gen++ {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("%s%03d", prefix, i)
			if err := db.Put([]byte(key), bigValue(key, gen)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.CompactRange(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// isVLog matches value-log segment files.
func isVLog(name string) bool {
	kind, _, ok := manifest.ParseFileName(name)
	return ok && kind == manifest.KindValueLog
}

// failOneVLogRead returns an injector failing the first value-log ReadAt
// it sees, once, with a transient fault.
func failOneVLogRead() vfs.Injector {
	var fired atomic.Bool
	return vfs.InjectorFunc(func(op vfs.Op, name string, n int64) error {
		if op != vfs.OpReadAt || !isVLog(name) || !fired.CompareAndSwap(false, true) {
			return nil
		}
		return &vfs.InjectedError{Op: op, Name: name}
	})
}

// TestOpenVLogReadFaultKeepsAckedWrites: a read fault on the value log
// while recovery walks it is not a torn tail. Open must fail rather than
// replay a truncated WAL and retire it, and the acknowledged write must
// survive for the next, fault-free open.
func TestOpenVLogReadFaultKeepsAckedWrites(t *testing.T) {
	mem := vfs.NewMem()
	cfg := vlogTestConfig()
	cfg.SyncWAL = true
	db := openTestDB(t, mem, cfg)
	if err := db.Put([]byte("acked"), bigValue("acked", 0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	efs := vfs.NewErrorFS(mem)
	efs.SetInjector(failOneVLogRead())
	if db, err := Open(efs, cfg); err == nil {
		got, gerr := db.Get([]byte("acked"), nil)
		_ = db.Close()
		if gerr != nil || !bytes.Equal(got, bigValue("acked", 0)) {
			t.Fatalf("Open over a value-log read fault succeeded but Get = %d bytes, %v", len(got), gerr)
		}
	}

	db = openTestDB(t, mem, cfg)
	defer db.Close()
	if got, err := db.Get([]byte("acked"), nil); err != nil || !bytes.Equal(got, bigValue("acked", 0)) {
		t.Fatalf("fault-free reopen: Get = %d bytes, %v", len(got), err)
	}
}

// TestValueGCTransientFaultDoesNotStickSegment: one transient read fault
// while value GC walks a segment must not exclude the segment from GC. The
// segment stays collectable and the next pass collects it.
func TestValueGCTransientFaultDoesNotStickSegment(t *testing.T) {
	efs := vfs.NewErrorFS(vfs.NewMem())
	cfg := fastRetryConfig(vlogTestConfig())
	cfg.VLogGCGarbageRatio = 1.0 // manual GC only
	db := openTestDB(t, efs, cfg)
	defer db.Close()

	const n = 40
	putGenerations(t, db, "key", 2, n)

	efs.SetInjector(failOneVLogRead())
	var inj *vfs.InjectedError
	if err := db.CompactValueLog(); err != nil && !errors.As(err, &inj) {
		t.Fatalf("CompactValueLog over a read fault = %v", err)
	}
	if err := db.CompactValueLog(); err != nil {
		t.Fatalf("fault-free CompactValueLog = %v", err)
	}
	db.mu.Lock()
	stuck := len(db.vlogGCStuck)
	var left []uint64
	for _, s := range db.vs.Current().VLogSegments() {
		if s.Num != db.vlogW.Seg() && s.Garbage > 0 && s.GCOffset < s.Size {
			left = append(left, s.Num)
		}
	}
	db.mu.Unlock()
	if stuck != 0 || len(left) != 0 {
		t.Fatalf("after a transient fault: %d segments stuck, garbage left in %v", stuck, left)
	}
	if ro, cause := db.ReadOnly(); ro {
		t.Fatalf("value-GC fault degraded the engine: %v", cause)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", i)
		if got, err := db.Get([]byte(key), nil); err != nil || !bytes.Equal(got, bigValue(key, 1)) {
			t.Fatalf("after GC: Get(%s) = %d bytes, %v", key, len(got), err)
		}
	}
}

// TestValueGCRetriesTransientFault: on the background lane the same fault
// is retried with backoff, announced by a bg-retry event, and never
// degrades the engine.
func TestValueGCRetriesTransientFault(t *testing.T) {
	efs := vfs.NewErrorFS(vfs.NewMem())
	cfg := fastRetryConfig(vlogTestConfig())
	cfg.VLogGCGarbageRatio = 1.0 // background GC takes only fully dead segments
	var retries atomic.Int64
	cfg.EventListener = func(e events.Event) {
		if e.Type == events.TypeBgRetry && strings.Contains(e.Err, "injected") {
			retries.Add(1)
		}
	}
	db := openTestDB(t, efs, cfg)
	defer db.Close()

	putGenerations(t, db, "key", 1, 40)
	// Puts and compactions never read the value log: the first read from
	// here on is the GC walk the next generation's garbage triggers.
	efs.SetInjector(failOneVLogRead())
	putGenerations(t, db, "key", 1, 40)
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if retries.Load() != 1 || m.BgRecoveredFaults.Load() == 0 {
		t.Fatalf("bg-retry events %d, recovered faults %d: the GC fault was not retried",
			retries.Load(), m.BgRecoveredFaults.Load())
	}
	if ro, cause := db.ReadOnly(); ro {
		t.Fatalf("value-GC fault degraded the engine: %v", cause)
	}
	db.mu.Lock()
	stuck := len(db.vlogGCStuck)
	db.mu.Unlock()
	if stuck != 0 || m.VLogGCPasses.Load() == 0 {
		t.Fatalf("%d segments stuck, %d GC passes", stuck, m.VLogGCPasses.Load())
	}
}
