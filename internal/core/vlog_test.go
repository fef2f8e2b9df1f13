package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/vfs"
	"github.com/bolt-lsm/bolt/internal/vlog"
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
	// sub-segment chunks. Every segment here is collected whole before the
	// one flush that logs the passes, so the reclaim pass unlinks each one
	// and drops the ranges its partial passes collected
	// (TestValueGCPartialSegmentPunched covers a segment left partial).
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
	if m.HolePunches != 0 {
		t.Fatalf("%d ranges punched in segments the same reclaim pass unlinked", m.HolePunches)
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

// putPartialGarbage leaves one sealed segment whose head is garbage and
// whose tail is live: three values written first and overwritten later,
// then twenty never overwritten. Value GC in chunks smaller than the tail
// collects the head and stops there, so the segment is punched in place.
func putPartialGarbage(t *testing.T, db *DB, prefix string) {
	t.Helper()
	put := func(key string, gen int) {
		if err := db.Put([]byte(key), bigValue(key, gen)); err != nil {
			t.Fatal(err)
		}
	}
	for gen := 0; gen < 2; gen++ {
		for i := 0; i < 3; i++ {
			put(fmt.Sprintf("%s-dead%d", prefix, i), gen)
		}
		for i := 0; i < 20 && gen == 0; i++ {
			put(fmt.Sprintf("%s-live%02d", prefix, i), gen)
		}
		if err := db.CompactRange(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestValueGCPartialSegmentPunched: a segment GC leaves partial keeps its
// file; the collected payloads are punched, the file opened once for them.
func TestValueGCPartialSegmentPunched(t *testing.T) {
	cfg := vlogTestConfig()
	cfg.VLogGCGarbageRatio = 1.0 // manual GC only
	cfg.VLogGCChunkBytes = 2 << 10
	cfs := newOpCountFS(vfs.NewMem())
	db := openTestDB(t, cfs, cfg)
	defer db.Close()
	putPartialGarbage(t, db, "p")
	db.mu.Lock()
	first := db.vs.Current().VLogSegments()[0]
	db.mu.Unlock()
	// Read the live values once, so the GC walk finds the segment's handle
	// cached and only the reclaim pass opens the file.
	readLive := func(stage string) {
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("p-live%02d", i)
			if got, err := db.Get([]byte(key), nil); err != nil || !bytes.Equal(got, bigValue(key, 0)) {
				t.Fatalf("%s: Get(%s) = %d bytes, %v", stage, key, len(got), err)
			}
		}
	}
	readLive("before GC")
	cfs.reset()
	if err := db.CompactValueLog(); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	after, ok := db.vs.Current().VLogSegment(first.Num)
	db.mu.Unlock()
	if !ok || after.GCOffset == 0 || after.GCOffset >= after.Size {
		t.Fatalf("segment %d after GC: %+v (present %v); the test needs it partially collected", first.Num, after, ok)
	}
	name := manifest.VLogFileName(first.Num)
	if got := db.met.HolePunches.Load(); got == 0 || cfs.count(vfs.OpPunchHole, name) == 0 {
		t.Fatalf("partial segment: %d ranges punched, %d punch calls", got, cfs.count(vfs.OpPunchHole, name))
	}
	if opens := cfs.count(opOpen, name); opens != 1 {
		t.Fatalf("segment %d opened %d times by the reclaim pass, want 1", first.Num, opens)
	}
	readLive("after GC")
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

// TestGetRetriesOnce pins Get's retry rule with deterministic one-shot
// faults on the value-log read. A latest-seq Get that finds its record
// punched (a zeroed read, which fails the checksum) or its segment
// unlinked (not found) may have raced value GC, so it retries once: one
// failure is absorbed, a second is returned. A Get at a snapshot holds a
// pin GC respects, and any other error is not a GC race: neither retries.
func TestGetRetriesOnce(t *testing.T) {
	efs := vfs.NewErrorFS(vfs.NewMem())
	cfg := vlogTestConfig()
	cfg.VLogGCGarbageRatio = 1.0 // no background GC
	db := openTestDB(t, efs, cfg)
	defer db.Close()
	key, want := []byte("key"), bigValue("key", 0)
	if err := db.Put(key, want); err != nil {
		t.Fatal(err)
	}
	snap := db.NewSnapshot()
	defer snap.Release()

	// The next left value-log reads fail: with fail set they return it,
	// otherwise they come back zeroed, as a punched record reads.
	var mu sync.Mutex
	left, fail := 0, error(nil)
	take := func(inject bool) (bool, error) {
		mu.Lock()
		defer mu.Unlock()
		if left == 0 || inject != (fail != nil) {
			return false, nil
		}
		left--
		return true, fail
	}
	efs.SetInjector(vfs.FilterName(isVLog, vfs.InjectorFunc(func(op vfs.Op, _ string, _ int64) error {
		if op != vfs.OpReadAt {
			return nil
		}
		_, err := take(true)
		return err
	})))
	efs.SetCorruptor(vfs.FilterCorruptName(isVLog, vfs.CorruptorFunc(func(_ vfs.Op, _ string, _ int64, p []byte, _ int64) {
		if hit, _ := take(false); hit {
			clear(p)
		}
	})))
	injected := &vfs.InjectedError{Op: vfs.OpReadAt, Name: "vlog"}
	for _, c := range []struct {
		name string
		fail error // nil: zero the read
		n    int
		snap *Snapshot
		want error // nil: the value
	}{
		{"punched once", nil, 1, nil, nil},
		{"punched twice", nil, 2, nil, vlog.ErrCorrupt},
		{"unlinked once", vfs.ErrNotFound, 1, nil, nil},
		{"unlinked twice", vfs.ErrNotFound, 2, nil, vfs.ErrNotFound},
		{"punched at a snapshot", nil, 1, snap, vlog.ErrCorrupt},
		{"unrelated error", injected, 1, nil, injected},
	} {
		mu.Lock()
		left, fail = c.n, c.fail
		mu.Unlock()
		got, err := db.Get(key, c.snap)
		switch {
		case c.want == nil && (err != nil || !bytes.Equal(got, want)):
			t.Errorf("%s: Get = %d bytes, %v; want the value", c.name, len(got), err)
		case c.want != nil && !errors.Is(err, c.want):
			t.Errorf("%s: Get = %d bytes, %v; want %v", c.name, len(got), err, c.want)
		}
		mu.Lock()
		if left > 0 {
			t.Errorf("%s: %d armed faults never fired", c.name, left)
		}
		mu.Unlock()
	}
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
	if passes := m.Snapshot().VLogGCPasses; stuck != 0 || passes == 0 {
		t.Fatalf("%d segments stuck, %d GC passes", stuck, passes)
	}
}

// TestValueGCWaitsForUnsyncedNewerVersion: with SyncWAL=false, a GC pass
// may decide a record dead only because a newer version sits in an
// unsynced memtable. The pass's watermark advance — and with it the
// segment's deletion — must not become durable before that memtable is
// flushed, or a crash loses the newer version and leaves the durable
// tables pointing into a deleted segment.
func TestValueGCWaitsForUnsyncedNewerVersion(t *testing.T) {
	mem := vfs.NewMem()
	cfg := vlogTestConfig()
	cfg.VLogGCGarbageRatio = 1 // manual GC only
	db := openTestDB(t, mem, cfg)
	defer db.Close()

	put := func(lo, hi, gen int) {
		for i := lo; i < hi; i++ {
			key := fmt.Sprintf("k%03d", i)
			if err := db.Put([]byte(key), bigValue(key, gen)); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0, 20, 0)
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	put(0, 10, 1)
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	put(10, 20, 1) // memtable only: the newer versions are unsynced
	if err := db.CompactValueLog(); err != nil {
		t.Fatal(err)
	}

	crashed := openTestDB(t, mem.CrashClone(), cfg)
	defer crashed.Close()
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k%03d", i)
		got, err := crashed.Get([]byte(key), nil)
		if err != nil {
			t.Errorf("after crash: Get(%s): %v", key, err)
			continue
		}
		if !bytes.Equal(got, bigValue(key, 0)) && !bytes.Equal(got, bigValue(key, 1)) {
			t.Errorf("after crash: Get(%s) = a value never written", key)
		}
	}
}

// TestValueGCSkipsSegmentWithPendingSeal: a segment sealed since the last
// flush is recorded in the version at the size that flush saw, not at its
// sealed size. Collecting it against the stale size would count it fully
// collected and delete the records past that size, which the memtable
// still points at.
func TestValueGCSkipsSegmentWithPendingSeal(t *testing.T) {
	db := openTestDB(t, vfs.NewMem(), vlogTestConfig())
	defer db.Close()
	put := func(lo, hi, gen int) {
		for i := lo; i < hi; i++ {
			key := fmt.Sprintf("k%03d", i)
			if err := db.Put([]byte(key), bigValue(key, gen)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Three keys and their overwrites fill most of the first segment; the
	// compaction records it at that size and counts half of it garbage.
	put(0, 3, 0)
	put(0, 3, 1)
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	put(3, 5, 0) // seals the segment; its size record waits for a flush
	if err := db.CompactValueLog(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%03d", i)
		if _, err := db.Get([]byte(key), nil); err != nil {
			t.Errorf("Get(%s): %v", key, err)
		}
	}
}

// TestBackgroundValueGCPaysNoBarriers: background value-GC passes between
// two flushes add nothing to the fsync count — the re-puts commit like any
// unsynced batch and the advances wait for the next flush.
func TestBackgroundValueGCPaysNoBarriers(t *testing.T) {
	db := openTestDB(t, vfs.NewMem(), vlogTestConfig())
	defer db.Close()
	// Generation 0 becomes garbage when the second CompactRange drops its
	// pointers; the GC lane picks it up as soon as that call lets go.
	putGenerations(t, db, "key", 2, 40)
	before := db.met.Snapshot()
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	after := db.met.Snapshot()
	if after.VLogGCPasses == before.VLogGCPasses {
		t.Fatal("no background value-GC pass ran")
	}
	if got := after.MemtableFlushes - before.MemtableFlushes; got != 0 {
		t.Fatalf("%d flushes during the GC passes; the test needs none", got)
	}
	if got := after.Fsyncs - before.Fsyncs; got != 0 {
		t.Fatalf("background value-GC passes paid %d fsyncs, want 0", got)
	}
	pending := pendingGCAdvances(db)
	if pending == 0 {
		t.Fatal("the passes recorded no pending advance")
	}
}

// pendingGCAdvances counts the value-GC advances no flush has logged yet.
func pendingGCAdvances(db *DB) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	for _, a := range db.afterFlush {
		if a.isGCAdvance() {
			n++
		}
	}
	return n
}

// TestCompactValueLogPaysOneFlush: any number of passes cost CompactValueLog
// one flush's barriers — the value-log sync, the table sync and the
// MANIFEST sync — and it returns with the space reclaimed.
func TestCompactValueLogPaysOneFlush(t *testing.T) {
	fs := vfs.NewMem()
	cfg := vlogTestConfig()
	cfg.VLogGCGarbageRatio = 1.0 // manual GC only
	cfg.VLogGCChunkBytes = 2 << 10
	db := openTestDB(t, fs, cfg)
	// Half of generation 0 stays live, so the passes re-put records.
	const n = 24
	for gen := 0; gen < 2; gen++ {
		for i := 0; i < n; i++ {
			if gen == 1 && i%2 == 1 {
				continue
			}
			key := fmt.Sprintf("key%03d", i)
			if err := db.Put([]byte(key), bigValue(key, gen)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.CompactRange(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with a roomy active segment, so the re-puts do not seal it (a
	// seal is a barrier of its own).
	cfg.VLogSegmentBytes = 1 << 20
	db = openTestDB(t, fs, cfg)
	defer db.Close()
	before := db.met.Snapshot()
	if err := db.CompactValueLog(); err != nil {
		t.Fatal(err)
	}
	after := db.met.Snapshot()
	if got := after.VLogGCPasses - before.VLogGCPasses; got < 3 {
		t.Fatalf("%d passes, the test needs at least 3", got)
	}
	if got := after.MemtableFlushes - before.MemtableFlushes; got != 1 {
		t.Fatalf("CompactValueLog ran %d flushes, want 1", got)
	}
	if got := after.Fsyncs - before.Fsyncs; got != 3 {
		t.Fatalf("CompactValueLog paid %d fsyncs, want 3 (vlog, table, MANIFEST)", got)
	}
	pending := pendingGCAdvances(db)
	db.mu.Lock()
	queued := len(db.reclaims)
	db.mu.Unlock()
	if pending != 0 || queued != 0 || db.met.VLogReclaimedBytes.Load() == 0 {
		t.Fatalf("after CompactValueLog: %d advances pending, %d reclaims queued, %d bytes reclaimed",
			pending, queued, db.met.VLogReclaimedBytes.Load())
	}
	// The collected segments are gone from disk, not just from the version.
	db.mu.Lock()
	live := len(db.vs.Current().VLogSegments())
	db.mu.Unlock()
	if onDisk := countVLogFiles(t, fs); onDisk > live {
		t.Fatalf("%d value-log files on disk for %d live segments", onDisk, live)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", i)
		want := bigValue(key, 1-i%2)
		if got, err := db.Get([]byte(key), nil); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("after GC: Get(%s) = %d bytes, %v", key, len(got), err)
		}
	}
}

// TestValueGCStuckSegmentReported: a rotted record header that blocks a
// segment's GC walk is reported — a vlog-gc-stuck event naming the segment
// and a counted metric — and the segment is left out of later picks while
// the rest of the log is collected.
func TestValueGCStuckSegmentReported(t *testing.T) {
	mem := vfs.NewMem()
	cfg := vlogTestConfig()
	cfg.VLogGCGarbageRatio = 1.0 // manual GC only
	var mu sync.Mutex
	var stuck []events.Event
	cfg.EventListener = func(e events.Event) {
		if e.Type == events.TypeVLogGCStuck {
			mu.Lock()
			stuck = append(stuck, e)
			mu.Unlock()
		}
	}
	db := openTestDB(t, mem, cfg)
	defer db.Close()
	putGenerations(t, db, "key", 2, 40)

	db.mu.Lock()
	rotted := db.vs.Current().VLogSegments()[0]
	db.mu.Unlock()
	if err := mem.CorruptFileRange(manifest.VLogFileName(rotted.Num), rotted.GCOffset, 4); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactValueLog(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactValueLog(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(stuck) != 1 || stuck[0].File != rotted.Num || stuck[0].BytesOut != rotted.Size-rotted.GCOffset {
		t.Fatalf("stuck events %v, want one for segment %d stranding %dB", stuck, rotted.Num, rotted.Size-rotted.GCOffset)
	}
	if got := db.Metrics().Snapshot().VLogGCStuck; got != 1 {
		t.Fatalf("VLogGCStuck = %d, want 1", got)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, s := range db.vs.Current().VLogSegments() {
		if s.Num != rotted.Num && s.Num != db.vlogW.Seg() && s.Garbage > 0 && s.GCOffset < s.Size {
			t.Errorf("segment %d left uncollected beside the stuck one", s.Num)
		}
	}
}
