package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/bolt-lsm/bolt/internal/vfs"
)

// TestRaceStressCompactionSnapshots is the -race workhorse (CI runs this
// package with -race): writers churn a small keyspace while a goroutine
// forces whole-range compactions and another takes and releases snapshots,
// reading through them. A tiny memtable keeps flushes, WAL rotations, and
// MANIFEST commits constantly in flight so the race detector sees the
// mu/manifestMu handoffs, the lock-free memtable inserts, and the table
// reclaim path all interleaved. The value-log case separates half the
// values, inserts concurrently, and forces value-GC passes beside the
// compactions, so the forced memtable switches queue behind grouped
// followers, concurrent inserters and value-GC writers.
func TestRaceStressCompactionSnapshots(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      func() Config
		valueLen int // of every other Put; 0 keeps every value small
		vlogGC   bool
	}{
		{"bolt", boltTestConfig, 0, false},
		{"vlog-concurrent", func() Config {
			c := vlogTestConfig()
			c.ConcurrentWriters = true
			return c
		}, 300, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.MemTableBytes = 8 << 10
			raceStress(t, cfg, tc.valueLen, tc.vlogGC)
		})
	}
}

func raceStress(t *testing.T, cfg Config, valueLen int, vlogGC bool) {
	db := openTestDB(t, vfs.NewMem(), cfg)
	defer db.Close()

	const (
		writers = 4
		perG    = 1200
		keys    = 400
	)
	var writersWG, auxWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perG; i++ {
				key := []byte(fmt.Sprintf("race%06d", rng.Intn(keys)))
				value := []byte(fmt.Sprintf("w%d-%d", w, i))
				if i%2 == 0 {
					value = append(value, make([]byte, valueLen)...)
				}
				switch rng.Intn(10) {
				case 0:
					if err := db.Delete(key); err != nil {
						t.Error(err)
						return
					}
				default:
					if err := db.Put(key, value); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}

	// Forced compactions race the background flush/compaction scheduler.
	loop := func(name string, run func() error) {
		auxWG.Add(1)
		go func() {
			defer auxWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := run(); err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
			}
		}()
	}
	loop("CompactRange", func() error { return db.CompactRange(nil, nil) })
	if vlogGC {
		loop("CompactValueLog", db.CompactValueLog)
	}

	// Snapshot churn: grab a snapshot, read through it, release it — the
	// snapshot list and visibleSeq are shared with the commit pipeline.
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		rng := rand.New(rand.NewSource(999))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			snap := db.NewSnapshot()
			for j := 0; j < 20; j++ {
				key := []byte(fmt.Sprintf("race%06d", rng.Intn(keys)))
				if _, err := db.Get(key, snap); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("snapshot Get: %v", err)
					snap.Release()
					return
				}
			}
			snap.Release()
		}
	}()

	// Writers finishing ends the test; then stop the auxiliary goroutines.
	writersWG.Wait()
	close(stop)
	auxWG.Wait()

	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
