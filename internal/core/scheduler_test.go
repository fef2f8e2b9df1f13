package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/metrics"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// TestParallelCompactionStress drives the multi-worker scheduler hard:
// several writer goroutines against a tiny memtable with four compaction
// workers, then verifies the data, the job/worker stamps on every
// background event, and that the in-flight registry drains to empty.
func TestParallelCompactionStress(t *testing.T) {
	cfg := boltTestConfig()
	cfg.MaxBackgroundCompactions = 4
	cfg.EventLogSize = 4096
	db := openTestDB(t, vfs.NewMem(), cfg)
	defer db.Close()

	// Interleaved key ranges from concurrent writers create compaction
	// debt across disjoint spans — the shape parallel picking exploits.
	const writers, perWriter = 4, 1500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := make([]byte, 120)
			for i := 0; i < perWriter; i++ {
				k := []byte(fmt.Sprintf("w%d-%06d", w, i))
				if err := db.Put(k, val); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	db.WaitIdle()

	if n := db.InFlightCompactions(); n != 0 {
		t.Fatalf("in-flight gauge = %d after WaitIdle", n)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i += 97 {
			if _, err := db.Get([]byte(fmt.Sprintf("w%d-%06d", w, i)), nil); err != nil {
				t.Fatalf("w%d-%06d lost: %v", w, i, err)
			}
		}
	}

	// Every background event must carry a job ID and a worker in
	// [0, MaxBackgroundCompactions]; start events must never reuse a job.
	seenJobs := map[uint64]bool{}
	workersSeen := map[int]bool{}
	for _, e := range db.Events() {
		switch e.Type {
		case events.TypeFlushStart, events.TypeFlushEnd,
			events.TypeCompactionStart, events.TypeCompactionEnd:
		default:
			continue
		}
		if e.Job == 0 {
			t.Fatalf("background event without job ID: %s", e.String())
		}
		if e.Worker < 0 || e.Worker > cfg.MaxBackgroundCompactions {
			t.Fatalf("worker ID %d out of range: %s", e.Worker, e.String())
		}
		if e.Type == events.TypeFlushStart || e.Type == events.TypeCompactionStart {
			if seenJobs[e.Job] {
				t.Fatalf("job ID %d reused", e.Job)
			}
			seenJobs[e.Job] = true
		}
		workersSeen[e.Worker] = true
	}
	if len(seenJobs) == 0 {
		t.Fatal("no background work recorded")
	}
	t.Logf("%d jobs across workers %v", len(seenJobs), workersSeen)
}

// TestManualCompactionWithParallelWorkers races CompactRange against
// pool workers: the manual latch must drain them, run exclusively, and
// count into the manual reason bucket.
func TestManualCompactionWithParallelWorkers(t *testing.T) {
	cfg := boltTestConfig()
	cfg.MaxBackgroundCompactions = 4
	db := openTestDB(t, vfs.NewMem(), cfg)
	defer db.Close()

	fill(t, db, 3000, 100)
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if n := db.InFlightCompactions(); n != 0 {
		t.Fatalf("in-flight gauge = %d after CompactRange", n)
	}
	snap := db.Metrics().Snapshot()
	if snap.CompactionsByReason[metrics.CompactionManual] == 0 {
		t.Fatal("manual compactions not counted in reason bucket")
	}
	checkFilled(t, db, 3000, 100)
}

// TestNegativeMaxBackgroundCompactionsSerializes pins the escape hatch:
// a negative setting restores a single worker.
func TestNegativeMaxBackgroundCompactionsSerializes(t *testing.T) {
	cfg := boltTestConfig()
	cfg.MaxBackgroundCompactions = -1
	db := openTestDB(t, vfs.NewMem(), cfg)
	defer db.Close()
	if db.cfg.MaxBackgroundCompactions != 1 {
		t.Fatalf("negative setting resolved to %d workers", db.cfg.MaxBackgroundCompactions)
	}
	fill(t, db, 2000, 100)
	db.WaitIdle()
	for _, e := range db.Events() {
		if e.Type == events.TypeCompactionStart && e.Worker > 1 {
			t.Fatalf("worker %d spawned under serialized config", e.Worker)
		}
	}
	checkFilled(t, db, 2000, 100)
}
