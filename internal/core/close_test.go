package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/bolt-lsm/bolt/internal/vfs"
)

// TestCloseWithConcurrentWriters closes the database while writers are in
// flight; every writer must get a clean result (nil or ErrClosed, never a
// panic or a hang).
func TestCloseWithConcurrentWriters(t *testing.T) {
	for round := 0; round < 5; round++ {
		cfg := testConfig()
		cfg.MemTableBytes = 8 << 10 // frequent switches keep writers stalling
		db := openTestDB(t, vfs.NewMem(), cfg)
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					err := db.Put([]byte(fmt.Sprintf("w%d-%06d", w, i)), make([]byte, 200))
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						t.Errorf("unexpected write error: %v", err)
						return
					}
				}
			}(w)
		}
		// Let the writers build up some work, then slam the door.
		for db.met.Writes.Load() < 500 {
		}
		if err := db.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		wg.Wait()
	}
}

// TestCloseWaitsForBackgroundWork ensures Close returns only after
// flush/compaction goroutines exit (no writes to a closed vfs afterwards).
func TestCloseWaitsForBackgroundWork(t *testing.T) {
	fs := vfs.NewMem()
	db := openTestDB(t, fs, boltTestConfig())
	fill(t, db, 2000, 100)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.running > 0 {
		t.Fatal("background work still active after Close")
	}
}

func TestWaitIdleDrainsBacklog(t *testing.T) {
	db := openTestDB(t, vfs.NewMem(), boltTestConfig())
	defer db.Close()
	fill(t, db, 3000, 100)
	db.WaitIdle()
	db.mu.Lock()
	idle := db.running == 0 && db.imm == nil
	db.mu.Unlock()
	if !idle {
		t.Fatal("WaitIdle returned while work was active")
	}
	// The store must still serve reads and writes.
	if err := db.Put([]byte("after-idle"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("after-idle"), nil); err != nil {
		t.Fatal(err)
	}
}

// TestCloseWithConcurrentWritersHyper exercises Close racing the
// ConcurrentWriters (HyperLevelDB-style) group commit, where followers may
// be failed by Close after the leader has absorbed their batches.
func TestCloseWithConcurrentWritersHyper(t *testing.T) {
	for round := 0; round < 8; round++ {
		cfg := testConfig()
		cfg.MemTableBytes = 8 << 10
		cfg.ConcurrentWriters = true
		cfg.L0SlowdownTrigger = 0
		cfg.L0StopTrigger = 0
		db := openTestDB(t, vfs.NewMem(), cfg)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					err := db.Put([]byte(fmt.Sprintf("w%d-%06d", w, i)), make([]byte, 150))
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						t.Errorf("write: %v", err)
						return
					}
				}
			}(w)
		}
		for db.met.Writes.Load() < 300 {
		}
		if err := db.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		wg.Wait() // must not hang
	}
}
