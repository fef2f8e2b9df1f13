package core

import (
	"bytes"
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

// vlogReclaimCounter counts the value-log punches and unlinks that reach
// the filesystem, in total and while a read window is open.
type vlogReclaimCounter struct {
	inWindow      atomic.Bool
	total, window atomic.Int64
}

func (c *vlogReclaimCounter) count(op vfs.Op) {
	if op == vfs.OpPunchHole || op == vfs.OpRemove {
		c.total.Add(1)
		if c.inWindow.Load() {
			c.window.Add(1)
		}
	}
}

// queuedReclaims returns the length of the reclaim queue.
func queuedReclaims(db *DB) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.reclaims)
}

// TestGetPinsVersionAcrossValueGC: a Get holds its version until the value
// is read. A value-GC cycle that runs inside the read window — re-put,
// flush, reclaim — collects the very record the Get resolved, yet queues
// its reclaim behind the Get's pin rather than punching or unlinking the
// record under the read; the queue drains at the next pin drop.
func TestGetPinsVersionAcrossValueGC(t *testing.T) {
	efs := vfs.NewErrorFS(vfs.NewMem())
	cfg := vlogTestConfig()
	cfg.VLogGCGarbageRatio = 1.0 // manual GC only
	cfg.VLogGCChunkBytes = 2 << 10
	db := openTestDB(t, efs, cfg)
	defer db.Close()
	putPartialGarbage(t, db, "p")

	// p-live00 sits right behind the segment's garbage head, in the range
	// the cycle collects.
	key := []byte("p-live00")
	var (
		c      vlogReclaimCounter
		armed  atomic.Bool
		gcErr  error
		queued int
	)
	armed.Store(true)
	efs.SetInjector(vfs.FilterName(isVLog, vfs.InjectorFunc(func(op vfs.Op, _ string, _ int64) error {
		c.count(op)
		if op == vfs.OpReadAt && armed.CompareAndSwap(true, false) {
			c.inWindow.Store(true)
			gcErr = db.CompactValueLog()
			queued = queuedReclaims(db)
			c.inWindow.Store(false)
		}
		return nil
	})))
	got, err := db.Get(key, nil)
	if err != nil || !bytes.Equal(got, bigValue(string(key), 0)) {
		t.Fatalf("Get across value GC = %d bytes, %v; want the value", len(got), err)
	}
	if armed.Load() {
		t.Fatal("the Get read no value-log record")
	}
	if gcErr != nil {
		t.Fatalf("CompactValueLog in the read window: %v", gcErr)
	}
	if n := c.window.Load(); n != 0 {
		t.Fatalf("%d value-log punches or unlinks inside the read window", n)
	}
	if queued == 0 {
		t.Fatal("value GC queued no reclaim behind the Get's version")
	}

	// The Get has dropped its pin; the next pin drop runs the queue.
	db.NewSnapshot().Release()
	if n := queuedReclaims(db); n != 0 {
		t.Fatalf("%d reclaims still queued after the next pin drop", n)
	}
	if c.total.Load() == 0 {
		t.Fatal("the drained queue punched and unlinked nothing")
	}
	if got, err := db.Get(key, nil); err != nil || !bytes.Equal(got, bigValue(string(key), 0)) {
		t.Fatalf("Get after reclaim = %d bytes, %v; want the re-put value", len(got), err)
	}
}

// TestGetReportsValueLogFaultsFirstTime: with no retry, a Get returns the
// first failure of its value-log read — a zeroed (punched or rotted)
// record as vlog.ErrCorrupt, any other fault as itself — at the latest
// state and at a snapshot alike, and the next clean read succeeds.
func TestGetReportsValueLogFaultsFirstTime(t *testing.T) {
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

	// Once armed, the next value-log read fails: with fail set it returns
	// fail, otherwise it comes back zeroed. fail is written only while
	// disarmed and read only after armed is seen set.
	var armed atomic.Bool
	var fail error
	efs.SetInjector(vfs.FilterName(isVLog, vfs.InjectorFunc(func(op vfs.Op, _ string, _ int64) error {
		if op == vfs.OpReadAt && armed.Load() && fail != nil && armed.CompareAndSwap(true, false) {
			return fail
		}
		return nil
	})))
	efs.SetCorruptor(vfs.FilterCorruptName(isVLog, vfs.CorruptorFunc(func(_ vfs.Op, _ string, _ int64, p []byte, _ int64) {
		if armed.Load() && fail == nil && armed.CompareAndSwap(true, false) {
			clear(p)
		}
	})))
	injected := &vfs.InjectedError{Op: vfs.OpReadAt, Name: "vlog"}
	for _, c := range []struct {
		name string
		fail error // nil: zero the read
		snap *Snapshot
		want error
	}{
		{"zeroed", nil, nil, vlog.ErrCorrupt},
		{"zeroed at a snapshot", nil, snap, vlog.ErrCorrupt},
		{"read fault", injected, nil, injected},
	} {
		fail = c.fail
		armed.Store(true)
		if got, err := db.Get(key, c.snap); !errors.Is(err, c.want) {
			t.Errorf("%s: Get = %d bytes, %v; want %v", c.name, len(got), err, c.want)
		}
		if armed.Load() {
			t.Errorf("%s: the fault never fired", c.name)
		}
		if got, err := db.Get(key, c.snap); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: clean Get = %d bytes, %v; want the value", c.name, len(got), err)
		}
	}
}

// TestIterPinsVersionAcrossValueGC: an iterator over pre-GC state still
// reads every pre-GC value after a value-GC cycle collected them, and its
// Close runs the reclaims it held back. One iterator is opened before the
// cycle and holds back the reclaims by its version; the other is opened
// after it on an older snapshot, which is then released first, and holds
// them back by its own snapshot entry.
func TestIterPinsVersionAcrossValueGC(t *testing.T) {
	for _, c := range []struct {
		name string
		// open returns the iterator; it runs the GC cycle before or after.
		open func(t *testing.T, db *DB) *DBIter
	}{
		{"opened before the cycle", func(t *testing.T, db *DB) *DBIter {
			it := db.NewIter(nil)
			if err := db.CompactValueLog(); err != nil {
				t.Fatal(err)
			}
			return it
		}},
		{"opened on a snapshot released before Close", func(t *testing.T, db *DB) *DBIter {
			snap := db.NewSnapshot()
			if err := db.CompactValueLog(); err != nil {
				t.Fatal(err)
			}
			it := db.NewIter(snap)
			snap.Release()
			return it
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			efs := vfs.NewErrorFS(vfs.NewMem())
			cfg := vlogTestConfig()
			cfg.VLogGCGarbageRatio = 1.0 // manual GC only
			cfg.VLogGCChunkBytes = 2 << 10
			db := openTestDB(t, efs, cfg)
			defer db.Close()
			putPartialGarbage(t, db, "p")
			want := map[string][]byte{}
			for i := 0; i < 3; i++ {
				key := fmt.Sprintf("p-dead%d", i)
				want[key] = bigValue(key, 1)
			}
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("p-live%02d", i)
				want[key] = bigValue(key, 0)
			}

			var rc vlogReclaimCounter
			efs.SetInjector(vfs.FilterName(isVLog, vfs.InjectorFunc(func(op vfs.Op, _ string, _ int64) error {
				rc.count(op)
				return nil
			})))
			it := c.open(t, db)
			if queuedReclaims(db) == 0 {
				t.Fatal("value GC queued no reclaim behind the iterator")
			}
			n := 0
			for ok := it.First(); ok; ok = it.Next() {
				if w := want[string(it.Key())]; !bytes.Equal(it.Value(), w) {
					t.Fatalf("iterator after GC: %s = %d bytes, want %d", it.Key(), len(it.Value()), len(w))
				}
				n++
			}
			if err := it.Err(); err != nil || n != len(want) {
				t.Fatalf("iterator after GC read %d of %d keys: %v", n, len(want), err)
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if n := queuedReclaims(db); n != 0 {
				t.Fatalf("%d reclaims still queued after Close", n)
			}
			if rc.total.Load() == 0 {
				t.Fatal("Close punched and unlinked nothing")
			}
		})
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
	// pointers. The value-GC claim is held until the snapshot below is
	// taken, so no pass can start, or end uncounted, before it.
	db.mu.Lock()
	db.gcActive = true
	db.mu.Unlock()
	putGenerations(t, db, "key", 2, 40)
	before := db.met.Snapshot()
	db.mu.Lock()
	db.gcActive = false
	db.maybeScheduleWorkLocked()
	db.mu.Unlock()
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
	// Hold the value-GC claim until the rot has landed: even at ratio 1.0
	// a background pass takes a fully dead segment, and one that read the
	// header first would collect the segment instead of getting stuck.
	db.mu.Lock()
	db.gcActive = true
	db.mu.Unlock()
	putGenerations(t, db, "key", 2, 40)

	db.mu.Lock()
	rotted := db.vs.Current().VLogSegments()[0]
	db.mu.Unlock()
	if err := mem.CorruptFileRange(manifest.VLogFileName(rotted.Num), rotted.GCOffset, 4); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	db.gcActive = false
	db.mu.Unlock()
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

// TestValueGCWritesValueLogOffMutex: a value-GC pass's re-puts reach the
// value log the way user writes do, in the group-commit leader's window
// off db.mu: every value-log write of a pass finds the mutex free.
func TestValueGCWritesValueLogOffMutex(t *testing.T) {
	efs := vfs.NewErrorFS(vfs.NewMem())
	cfg := vlogTestConfig()
	cfg.VLogGCGarbageRatio = 1.0 // manual GC only
	cfg.VLogGCChunkBytes = 2 << 10
	db := openTestDB(t, efs, cfg)
	defer db.Close()
	putPartialGarbage(t, db, "p")

	var writes, underMu atomic.Int64
	efs.SetInjector(vfs.FilterName(isVLog, vfs.InjectorFunc(func(op vfs.Op, _ string, _ int64) error {
		if op != vfs.OpWrite {
			return nil
		}
		writes.Add(1)
		for range 200 {
			if db.mu.TryLock() {
				db.mu.Unlock()
				return nil
			}
			time.Sleep(100 * time.Microsecond)
		}
		underMu.Add(1)
		return nil
	})))
	err := db.CompactValueLog()
	efs.SetInjector(nil)
	if err != nil {
		t.Fatal(err)
	}
	if writes.Load() == 0 {
		t.Fatal("the pass re-put nothing into the value log")
	}
	if n := underMu.Load(); n != 0 {
		t.Fatalf("%d value-log writes under db.mu", n)
	}
}

// TestValueGCReputFollowsThreshold: a re-put value goes wherever the
// current ValueThreshold sends it. Values separated at threshold 256 and
// collected after a reopen at 4096 come back inline: the pass appends
// nothing to the value log, and every live value still reads back.
func TestValueGCReputFollowsThreshold(t *testing.T) {
	fs := vfs.NewMem()
	cfg := vlogTestConfig()
	cfg.VLogGCGarbageRatio = 1.0 // manual GC only
	db := openTestDB(t, fs, cfg)
	putPartialGarbage(t, db, "p")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.ValueThreshold = 4096
	db = openTestDB(t, fs, cfg)
	defer db.Close()
	before := db.met.Snapshot()
	if err := db.CompactValueLog(); err != nil {
		t.Fatal(err)
	}
	after := db.met.Snapshot()
	if after.VLogGCPasses == before.VLogGCPasses {
		t.Fatal("no value-GC pass ran")
	}
	if n := after.VLogAppends - before.VLogAppends; n != 0 {
		t.Fatalf("the passes appended %d records under a threshold above every value", n)
	}
	check := func(key string, gen int) {
		if got, err := db.Get([]byte(key), nil); err != nil || !bytes.Equal(got, bigValue(key, gen)) {
			t.Fatalf("Get(%s) after GC = %d bytes, %v", key, len(got), err)
		}
	}
	for i := range 3 {
		check(fmt.Sprintf("p-dead%d", i), 1)
	}
	for i := range 20 {
		check(fmt.Sprintf("p-live%02d", i), 0)
	}
}

// TestValueGCHoldsNoReservation: a value-GC pass claims the value-GC lane,
// not the compaction registry; the in-flight gauge stays at zero while a
// pass reads its segment.
func TestValueGCHoldsNoReservation(t *testing.T) {
	efs := vfs.NewErrorFS(vfs.NewMem())
	cfg := vlogTestConfig()
	cfg.VLogGCGarbageRatio = 1.0 // manual GC only
	db := openTestDB(t, efs, cfg)
	defer db.Close()
	putPartialGarbage(t, db, "p")
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	var samples, reserved atomic.Int64
	efs.SetInjector(vfs.FilterName(isVLog, vfs.InjectorFunc(func(op vfs.Op, _ string, _ int64) error {
		if op == vfs.OpReadAt {
			samples.Add(1)
			reserved.Store(max(reserved.Load(), int64(db.InFlightCompactions())))
		}
		return nil
	})))
	err := db.CompactValueLog()
	efs.SetInjector(nil)
	if err != nil {
		t.Fatal(err)
	}
	if samples.Load() == 0 {
		t.Fatal("the pass read no value-log record")
	}
	if n := reserved.Load(); n != 0 {
		t.Fatalf("InFlightCompactions() = %d during a value-GC pass, want 0", n)
	}
}

// TestNoFsyncUnderMutex: no fsync of any file runs with db.mu held —
// through value-log rotations, background flushes and compactions,
// value-GC passes, CompactRange, CompactValueLog and Close. Every barrier
// is paid in a window off the engine mutex. Nor does any close of a WAL,
// which unmaps and truncates a mapped log: the flushes that retire the
// WALs of size-triggered and forced switches close them off mu, and so
// does Close.
func TestNoFsyncUnderMutex(t *testing.T) {
	hfs := &handleFS{FS: vfs.NewMem()}
	efs := vfs.NewErrorFS(hfs)
	db := openTestDB(t, efs, vlogTestConfig())
	var syncs, rotations, logCloses atomic.Int64
	var mu sync.Mutex
	var underMu []string
	// checkFree records op on name unless db.mu comes free within 20 ms.
	checkFree := func(op, name string) {
		for range 200 {
			if db.mu.TryLock() {
				db.mu.Unlock()
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
		mu.Lock()
		underMu = append(underMu, op+" "+name)
		mu.Unlock()
	}
	onClose := func(name string) {
		if kind, _, _ := manifest.ParseFileName(name); kind == manifest.KindLog {
			logCloses.Add(1)
			checkFree("close", name)
		}
	}
	hfs.onClose.Store(&onClose)
	efs.SetInjector(vfs.InjectorFunc(func(op vfs.Op, name string, _ int64) error {
		switch {
		case op == vfs.OpCreate && isVLog(name):
			rotations.Add(1)
			return nil
		case op != vfs.OpSync && op != vfs.OpSyncDir:
			return nil
		}
		syncs.Add(1)
		checkFree("sync", name)
		return nil
	}))
	putGenerations(t, db, "big", 3, 40)
	small := make([]byte, 100)
	for i := 0; i < 3000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("small%03d", i%500)), small); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactValueLog(); err != nil {
		t.Fatal(err)
	}
	s := db.met.Snapshot()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	efs.SetInjector(nil)
	if rotations.Load() < 3 || s.MemtableFlushes < 5 || s.Compactions-s.VLogGCPasses == 0 || s.VLogGCPasses == 0 {
		t.Fatalf("the run needs rotations, flushes, compactions and GC passes: %d, %d, %d, %d",
			rotations.Load(), s.MemtableFlushes, s.Compactions-s.VLogGCPasses, s.VLogGCPasses)
	}
	if syncs.Load() == 0 {
		t.Fatal("the run paid no fsync")
	}
	// Each flush closes the WAL it retired, and Close the active one.
	if n := logCloses.Load(); n < s.MemtableFlushes+1 {
		t.Fatalf("%d WAL closes for %d flushes and a Close", n, s.MemtableFlushes)
	}
	if len(underMu) != 0 {
		t.Fatalf("%d of %d fsyncs and WAL closes ran under db.mu: %v", len(underMu), syncs.Load()+logCloses.Load(), underMu)
	}
}

// fillRetiredSegments puts n separated values into db, enough to retire
// several 8 KiB segments and too few to fill the memtable, so no flush
// runs.
func fillRetiredSegments(t *testing.T, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%03d", i)
		if err := db.Put([]byte(key), bigValue(key, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if s := db.met.Snapshot(); s.MemtableFlushes != 0 {
		t.Fatalf("%d flushes while filling; the test needs none", s.MemtableFlushes)
	}
}

// checkSegmentsRecordedWhole asserts every value-log segment on disk is in
// the version at its full on-disk length: all of it was synced, and no
// append followed.
func checkSegmentsRecordedWhole(t *testing.T, db *DB, fs vfs.FS) {
	t.Helper()
	db.mu.Lock()
	v := db.vs.Current()
	retired := len(db.vlogWritersLocked()) - 1
	db.mu.Unlock()
	if retired != 0 {
		t.Fatalf("%d retired segments still wait for a flush", retired)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		kind, num, ok := manifest.ParseFileName(name)
		if !ok || kind != manifest.KindValueLog {
			continue
		}
		size, err := fs.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if s, ok := v.VLogSegment(num); !ok || s.Size != size {
			t.Errorf("segment %d: recorded %v at %d bytes, %d on disk", num, ok, s.Size, size)
		}
	}
}

// TestFlushSyncsRetiredSegments: a rotation pays no barrier; the next
// flush syncs each segment retired since the last one and the active one,
// once each, and records each at its synced length.
func TestFlushSyncsRetiredSegments(t *testing.T) {
	efs := vfs.NewErrorFS(vfs.NewMem())
	db := openTestDB(t, efs, vlogTestConfig())
	defer db.Close()
	var rotations, syncs atomic.Int64
	efs.SetInjector(vfs.FilterName(isVLog, vfs.InjectorFunc(func(op vfs.Op, _ string, _ int64) error {
		switch op {
		case vfs.OpCreate:
			rotations.Add(1)
		case vfs.OpSync:
			syncs.Add(1)
		}
		return nil
	})))
	fillRetiredSegments(t, db, 20)
	n := rotations.Load()
	if n < 2 {
		t.Fatalf("%d rotations, the test needs at least 2", n)
	}
	if got := syncs.Load(); got != 0 {
		t.Fatalf("%d rotations paid %d value-log syncs, want 0", n, got)
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := db.met.Snapshot().MemtableFlushes; got != 1 {
		t.Fatalf("%d flushes, want 1", got)
	}
	if got := syncs.Load(); got != n+1 {
		t.Fatalf("the flush after %d rotations paid %d value-log syncs, want %d", n, got, n+1)
	}
	checkSegmentsRecordedWhole(t, db, efs)
}

// TestRetiredSegmentSyncFaultFailsFlush: a failed sync of a retired
// segment fails the flush, which the runner retries. The database runs
// under the sync tracker, whose barrier checker panics at any MANIFEST
// sync recording the segment past its synced length; the retry records it
// whole.
func TestRetiredSegmentSyncFaultFailsFlush(t *testing.T) {
	efs := vfs.NewErrorFS(vfs.NewMem())
	db := openTestDB(t, vfs.NewSyncTrackerFS(efs, barrierChecker{}), vlogTestConfig())
	defer db.Close()
	db.mu.Lock()
	name := manifest.VLogFileName(db.vlogW.Seg())
	db.mu.Unlock()
	var failures atomic.Int64
	efs.SetInjector(vfs.FilterName(func(n string) bool { return n == name },
		vfs.InjectorFunc(func(op vfs.Op, name string, _ int64) error {
			if op == vfs.OpSync && failures.Add(1) <= 2 {
				return &vfs.InjectedError{Op: op, Name: name}
			}
			return nil
		})))
	fillRetiredSegments(t, db, 20)
	if got := failures.Load(); got != 0 {
		t.Fatalf("the rotation synced %s %d times, want 0", name, got)
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	s := db.met.Snapshot()
	if s.BgRetries != 2 || s.MemtableFlushes != 1 || failures.Load() != 3 {
		t.Fatalf("%d retries, %d flushes, %d syncs of %s; want 2 retries of 1 flush, 3 syncs",
			s.BgRetries, s.MemtableFlushes, failures.Load(), name)
	}
	checkSegmentsRecordedWhole(t, db, efs)
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("key%03d", i)
		if got, err := db.Get([]byte(key), nil); err != nil || !bytes.Equal(got, bigValue(key, 0)) {
			t.Fatalf("Get(%s) = %d bytes, %v", key, len(got), err)
		}
	}
}
