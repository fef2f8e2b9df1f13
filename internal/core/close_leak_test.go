package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/bolt-lsm/bolt/internal/vfs"
)

// waitForGoroutines polls until the process goroutine count falls back to
// the baseline (runtime bookkeeping lags Close by a scheduler beat) and
// fails with the live count otherwise.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked past Close: %d live, baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseVsLaneNoLeak races Close against each lane of the job runner
// with work in flight: Close lands mid-flight without waiting for idle
// first, and neither a lane's worker slots nor the process goroutine count
// may show a survivor.
func TestCloseVsLaneNoLeak(t *testing.T) {
	for _, tc := range []struct {
		lane string
		cfg  func() Config
		load func(t *testing.T, db *DB)
	}{
		{"pool", boltTestConfig, putBurst},
		{"flush", func() Config {
			c := boltTestConfig()
			c.SeparateFlushThread = true
			return c
		}, putBurst},
		{"vlog-gc", vlogTestConfig, func(t *testing.T, db *DB) {
			// The first generation becomes garbage the GC lane picks up as
			// soon as CompactRange lets go.
			putGenerations(t, db, "key", 2, 40)
			// Close after the first pass, racing the rest.
			for deadline := time.Now().Add(5 * time.Second); db.met.VLogGCPasses.Load() == 0; {
				if time.Now().After(deadline) {
					t.Fatal("value GC never ran")
				}
				time.Sleep(100 * time.Microsecond)
			}
		}},
		{"scrub", func() Config {
			c := testConfig()
			c.ScrubInterval = time.Millisecond
			return c
		}, func(t *testing.T, db *DB) {
			fill(t, db, 500, 100)
			// Let the timer fire so Close races a live pass, not an idle
			// lane.
			time.Sleep(5 * time.Millisecond)
		}},
	} {
		t.Run(tc.lane, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			db := openTestDB(t, vfs.NewMem(), tc.cfg())
			tc.load(t, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db.mu.Lock()
			for i, l := range db.lanes {
				if l.busy != 0 {
					t.Errorf("lane %d has %d workers after Close", i, l.busy)
				}
			}
			db.mu.Unlock()
			waitForGoroutines(t, baseline)
		})
	}
}

// putBurst writes enough to keep flushes and compactions in flight.
func putBurst(t *testing.T, db *DB) {
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("leak-%06d", i)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
}
