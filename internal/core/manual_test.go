package core

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/metrics"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

func TestCompactRangeFullSettlesTree(t *testing.T) {
	for _, name := range []string{"leveldb", "bolt"} {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			if name == "bolt" {
				cfg = boltTestConfig()
			}
			db := openTestDB(t, vfs.NewMem(), cfg)
			defer db.Close()
			fill(t, db, 3000, 100)
			if err := db.CompactRange(nil, nil); err != nil {
				t.Fatal(err)
			}
			files := db.NumLevelFiles()
			if files[0] != 0 {
				t.Fatalf("L0 not empty after full compaction: %v\n%s", files, db.DebugVersion())
			}
			checkFilled(t, db, 3000, 100)
			if err := db.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCompactRangePartial(t *testing.T) {
	db := openTestDB(t, vfs.NewMem(), testConfig())
	defer db.Close()
	fill(t, db, 3000, 100)
	// Compact only the first half of the keyspace.
	if err := db.CompactRange([]byte("key00000000"), []byte("key00001500")); err != nil {
		t.Fatal(err)
	}
	checkFilled(t, db, 3000, 100)
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactRangeEmptyDB(t *testing.T) {
	db := openTestDB(t, vfs.NewMem(), testConfig())
	defer db.Close()
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompactRangeFlushesMemtable(t *testing.T) {
	db := openTestDB(t, vfs.NewMem(), testConfig())
	defer db.Close()
	// Data small enough to stay in the memtable.
	for i := 0; i < 10; i++ {
		db.Put([]byte(fmt.Sprintf("m%02d", i)), []byte("v"))
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range db.NumLevelFiles() {
		total += n
	}
	if total == 0 {
		t.Fatal("memtable content not flushed to tables")
	}
	// The forced rotation is in the trace exactly once, names the WAL now
	// in use, and — emitted after the call's critical sections — is
	// back-dated to before the flush it caused.
	db.mu.Lock()
	walNum := db.walW.Num()
	db.mu.Unlock()
	var rotations []events.Event
	var flushStart events.Event
	for _, e := range db.Events() {
		switch e.Type {
		case events.TypeWALRotation:
			rotations = append(rotations, e)
		case events.TypeFlushStart:
			flushStart = e
		}
	}
	if len(rotations) != 1 || rotations[0].File != walNum {
		t.Fatalf("wal-rotation events = %+v, want exactly one for log %d", rotations, walNum)
	}
	if flushStart.Time.IsZero() || rotations[0].Time.After(flushStart.Time) {
		t.Fatalf("rotation stamped %v, after its flush started at %v", rotations[0].Time, flushStart.Time)
	}
	for i := 0; i < 10; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("m%02d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}

	// A size-triggered rotation, then a forced one: every rotation is
	// stamped under mu in its switch, so none is later than the start of
	// the flush of the memtable it retired. Rotations and flushes
	// alternate, so the i-th of each pair up.
	fill(t, db, 500, 100)
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	rotations = rotations[:0]
	var flushStarts []events.Event
	for _, e := range db.Events() {
		switch e.Type {
		case events.TypeWALRotation:
			rotations = append(rotations, e)
		case events.TypeFlushStart:
			flushStarts = append(flushStarts, e)
		}
	}
	sort.Slice(rotations, func(i, j int) bool { return rotations[i].File < rotations[j].File })
	if len(rotations) < 3 || len(flushStarts) != len(rotations) {
		t.Fatalf("%d wal-rotation and %d flush-start events, want as many of each and at least 3", len(rotations), len(flushStarts))
	}
	for i, r := range rotations {
		if r.Time.After(flushStarts[i].Time) {
			t.Errorf("rotation to log %d stamped %v, after its flush started at %v", r.File, r.Time, flushStarts[i].Time)
		}
	}
}

func TestCompactRangeDropsTombstones(t *testing.T) {
	db := openTestDB(t, vfs.NewMem(), testConfig())
	defer db.Close()
	fill(t, db, 1000, 100)
	for i := 0; i < 1000; i++ {
		db.Delete([]byte(fmt.Sprintf("key%08d", i)))
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	// Everything deleted and fully compacted: the tree should be empty.
	total := int64(0)
	db.mu.Lock()
	v := db.vs.Current()
	for level := range v.Levels {
		total += v.LevelBytes(level)
	}
	db.mu.Unlock()
	if total > 5<<10 {
		t.Fatalf("tombstones/garbage survived full compaction: %d bytes\n%s", total, db.DebugVersion())
	}
	for i := 0; i < 1000; i += 111 {
		if _, err := db.Get([]byte(fmt.Sprintf("key%08d", i)), nil); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key resurfaced: %v", err)
		}
	}
}

func TestCompactRangeConcurrentWithWrites(t *testing.T) {
	db := openTestDB(t, vfs.NewMem(), boltTestConfig())
	defer db.Close()
	fill(t, db, 1500, 100)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			if err := db.Put([]byte(fmt.Sprintf("bg%06d", i)), make([]byte, 100)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactRangeCompactionCount pins what a full manual compaction costs
// on a fixed tree: three flushed memtables in level 0 (one below the
// trigger) plus a fourth still in memory, whose flush inside CompactRange
// brings level 0 to the trigger. The scheduler must not get that level
// first, and the manual pass must move it in one compaction rather than
// one per (disjoint) level-0 table: six compactions, one per level, and
// the fourteen barriers of one flush plus six data/MANIFEST pairs. With the
// trigger out of reach only the second half is in play.
func TestCompactRangeCompactionCount(t *testing.T) {
	for _, trigger := range []int{4, 100} {
		t.Run(fmt.Sprintf("L0Trigger=%d", trigger), func(t *testing.T) {
			cfg := boltTestConfig()
			cfg.L0CompactionTrigger = trigger
			testCompactRangeCompactionCount(t, cfg)
		})
	}
}

func testCompactRangeCompactionCount(t *testing.T, cfg Config) {
	db := openTestDB(t, vfs.NewMem(), cfg)
	defer db.Close()
	put := func(round int) {
		for i := 0; i < 100; i++ {
			if err := db.Put([]byte(fmt.Sprintf("key%02d%06d", round, i)), make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 3; round++ {
		put(round)
		db.mu.Lock()
		err := db.flushMemtableLocked(false)
		db.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if err := db.WaitIdle(); err != nil {
			t.Fatal(err)
		}
	}
	put(3)
	if files, n := db.NumLevelFiles(), db.Metrics().Snapshot().Compactions; files[0] == 0 || n != 0 {
		t.Fatalf("tree not as arranged: files %v, %d compactions", files, n)
	}

	fsyncs := db.IO().Fsyncs.Load()
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics().Snapshot()
	if total, manual := m.Compactions, m.CompactionsByReason[metrics.CompactionManual]; total != 6 || manual != 6 {
		t.Fatalf("%d compactions, %d of them manual; want 6 and 6\n%s", total, manual, db.DebugVersion())
	}
	if got := db.IO().Fsyncs.Load() - fsyncs; got != 14 {
		t.Fatalf("%d barriers, want 14", got)
	}
	files := db.NumLevelFiles()
	for level := 0; level < len(files)-1; level++ {
		if files[level] != 0 {
			t.Fatalf("level %d not empty after full compaction: %v", level, files)
		}
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactRangeCallsSerialize: each manual compaction assumes it alone
// consumes current-version tables, so concurrent calls take turns.
func TestCompactRangeCallsSerialize(t *testing.T) {
	db := openTestDB(t, vfs.NewMem(), boltTestConfig())
	defer db.Close()
	fill(t, db, 2000, 100)
	errs := make(chan error, 3)
	for i := 0; i < cap(errs); i++ {
		go func() { errs <- db.CompactRange(nil, nil) }()
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	checkFilled(t, db, 2000, 100)
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
