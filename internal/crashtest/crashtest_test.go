package crashtest

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bolt-lsm/bolt/internal/core"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// leveldbProfile is a legacy one-file-per-table configuration at crash-test
// scale (tiny memtable so a few hundred ops cross several flushes).
func leveldbProfile() core.Config {
	return core.Config{
		MemTableBytes:       16 << 10,
		MaxSSTableBytes:     8 << 10,
		BlockSize:           1024,
		L0CompactionTrigger: 4,
		L0SlowdownTrigger:   8,
		L0StopTrigger:       12,
		L1MaxBytes:          64 << 10,
		LevelMultiplier:     10,
		TableCacheEntries:   100,
		BlockCacheBytes:     1 << 20,
		// Single-lock caches: the crash/bit-rot harnesses compare runs
		// byte for byte, so keep cache behaviour independent of the
		// host's GOMAXPROCS.
		CacheShards: 1,
	}
}

// boltProfile adds compaction files, group compaction, settled compaction,
// and the FD cache — the full BoLT element set, including hole punching.
func boltProfile() core.Config {
	c := leveldbProfile()
	c.LogicalSSTableBytes = 4 << 10
	c.GroupCompactionBytes = 16 << 10
	c.SettledCompaction = true
	c.FDCache = true
	return c
}

// hyperBoltProfile layers the HyperLevelDB write path (concurrent memtable
// inserts, dedicated flush thread, no slowdown governor) on top of BoLT.
func hyperBoltProfile() core.Config {
	c := boltProfile()
	c.ConcurrentWriters = true
	c.SeparateFlushThread = true
	c.L0SlowdownTrigger = 0
	return c
}

// vlogBoltProfile enables WAL-time key-value separation over the BoLT
// set: a threshold inside the workload's value-size range (so runs mix
// inline and separated values), segments small enough that rotation and
// background value GC churn mid-workload, and sub-segment GC chunks so
// crashes can land between a GC pass's re-put commit, its watermark
// MANIFEST commit, and its hole punches.
func vlogBoltProfile() core.Config {
	c := boltProfile()
	c.ValueThreshold = 128
	c.VLogSegmentBytes = 8 << 10
	c.VLogGCGarbageRatio = 0.3
	c.VLogGCChunkBytes = 4 << 10
	return c
}

// parallelBoltProfile runs the full BoLT element set with several
// compaction workers, so crashes land while multiple compactions (and
// their MANIFEST commits) are in flight.
func parallelBoltProfile() core.Config {
	c := boltProfile()
	c.MaxBackgroundCompactions = 3
	return c
}

// TestCrashRecovery is the randomized harness: ≥200 seeded crash/reopen
// cycles in short mode across all crash classes, three engine profiles,
// and both clean and torn images — with zero acknowledged-write losses.
func TestCrashRecovery(t *testing.T) {
	seeds := 200
	if !testing.Short() {
		seeds = 600
	}

	profiles := []struct {
		name string
		cfg  func() core.Config
	}{
		{"leveldb", leveldbProfile},
		{"bolt", boltProfile},
		{"vlog", vlogBoltProfile},
		{"hyperbolt", hyperBoltProfile},
		{"parallel", parallelBoltProfile},
	}

	fired := 0
	firedByClass := make(map[string]int)
	for seed := 0; seed < seeds; seed++ {
		p := profiles[(seed/3)%len(profiles)]
		opts := Options{
			Seed:    int64(seed),
			Profile: p.cfg(),
			Torn:    seed%3 == 0,
		}
		res, err := Run(opts)
		if err != nil {
			t.Fatalf("profile %s: %v", p.name, err)
		}
		if res.Fired {
			fired++
			firedByClass[res.Class]++
		}
	}

	t.Logf("%d/%d runs fired a crash; by class: %v", fired, seeds, firedByClass)
	if fired < seeds/3 {
		t.Fatalf("only %d/%d runs reached their crash point; targets are mistuned", fired, seeds)
	}
	// The high-frequency classes must fire (their targets are drawn inside
	// the guaranteed op-count range); low-frequency classes (dir-rename,
	// punch) fire opportunistically.
	for _, class := range []string{"sync", "write", "mixed"} {
		if firedByClass[class] == 0 {
			t.Fatalf("class %q never fired across %d seeds", class, seeds)
		}
	}
}

// TestCrashRecoveryUnsynced runs the value-log profile with SyncWAL off,
// the paper's and the benchmark's setting, where a write is durable only
// once a flush covers it: across all crash classes, clean and torn, no
// read may fail and no key may read older than its last flushed version.
// Value GC is what this contract stresses — a pass decides a record dead
// from a newer version that may still be unsynced.
func TestCrashRecoveryUnsynced(t *testing.T) {
	// A crash exposes an early reclamation only between a GC pass and the
	// flush of the memtable behind it, so this takes many short runs: at
	// the parent of this harness, 5 in 1 000 of them lost a value.
	seeds := 1000
	if !testing.Short() {
		seeds = 4000
	}
	fired := 0
	for seed := 0; seed < seeds; seed++ {
		res, err := RunUnsynced(Options{
			Seed:    int64(seed),
			Ops:     600,
			Profile: vlogBoltProfile(),
			Torn:    seed%3 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Fired {
			fired++
		}
	}
	t.Logf("%d/%d runs fired a crash", fired, seeds)
	if fired < seeds/3 {
		t.Fatalf("only %d/%d runs reached their crash point; targets are mistuned", fired, seeds)
	}
}

// TestCrashRecoveryTornManifestForced pins the crash to the MANIFEST
// barrier window: it tears every image at the Sync immediately following a
// MANIFEST write, so the data barrier has been paid but the MANIFEST
// barrier may be torn — the exact window BoLT's commit ordering protects.
func TestCrashRecoveryTornManifestForced(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		opts := Options{
			Seed:    1_000_000 + seed*5, // class "sync" (5 classes, index 0)
			Profile: boltProfile(),
			Torn:    true,
		}
		if _, err := Run(opts); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFaultThenCrashCombo chains both failure modes deterministically: a
// transient table-sync fault is injected and recovered (retry path), then
// the crash image is taken; every acknowledged key must survive reopen.
func TestFaultThenCrashCombo(t *testing.T) {
	cfg := boltProfile()
	cfg.SyncWAL = true
	cfg.VerifyInvariants = true
	cfg.BgRetryBaseDelay = 100 * time.Microsecond
	cfg.BgRetryMaxDelay = time.Millisecond

	efs := vfs.NewErrorFS(vfs.NewMem())
	db, err := core.Open(efs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fail the first table sync, once (FailNth counts all OpSync
	// occurrences globally, and the WAL syncs here would race past it).
	var failedOnce atomic.Bool
	efs.SetInjector(vfs.InjectorFunc(func(op vfs.Op, name string, n int64) error {
		if op == vfs.OpSync && strings.HasSuffix(name, ".sst") &&
			failedOnce.CompareAndSwap(false, true) {
			return &vfs.InjectedError{Op: op, Name: name}
		}
		return nil
	}))

	const n = 200
	val := strings.Repeat("combo-", 40)
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("combo%04d", i)), []byte(val)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatalf("WaitIdle after transient fault = %v, want recovered", err)
	}
	if db.Metrics().BgRetries.Load() == 0 {
		t.Fatal("transient fault was never retried")
	}

	img := efs.CrashImage() // crash after recovery, before close
	_ = db.Close()

	db2, err := core.Open(img, cfg)
	if err != nil {
		t.Fatalf("reopen crash image: %v", err)
	}
	defer db2.Close()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("combo%04d", i)
		if got, err := db2.Get([]byte(key), nil); err != nil || string(got) != val {
			t.Fatalf("key %s after fault+crash: %q, %v", key, got, err)
		}
	}
}
