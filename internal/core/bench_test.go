package core

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/bolt-lsm/bolt/internal/compaction"
	"github.com/bolt-lsm/bolt/internal/iterator"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// BenchmarkCompactionMerge measures the background data path end to end on
// an in-memory filesystem: eight interleaved sorted runs of 64 KiB logical
// SSTables (the `load` benchmark's record shape: 23-byte keys, 256-byte
// values, 88 bytes of entry padding) are opened through the table cache
// with readahead, merged, and written through a tableOutput into one
// compaction file. It reports input MB/s and allocations per merged entry;
// the latter is deterministic and guarded by .github/alloc-baseline.txt.
func BenchmarkCompactionMerge(b *testing.B) {
	const (
		runs       = 8
		perRun     = 700 // ≈ four 64 KiB tables a run
		valueBytes = 256
	)
	cfg := Config{
		MemTableBytes:        4 << 20,
		MaxSSTableBytes:      128 << 10,
		LogicalSSTableBytes:  64 << 10,
		GroupCompactionBytes: 4 << 20,
		L1MaxBytes:           640 << 10,
		EntryPadding:         88,
		L0CompactionTrigger:  1 << 20, // nothing runs in the background
		SettledCompaction:    true,
		FDCache:              true,
		TableCacheEntries:    32_000,
		BlockCacheBytes:      512 << 10,
	}
	fs := vfs.NewMem()
	db, err := Open(fs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()

	c := &compaction.Compaction{Level: 0, OutputLevel: 1, Reason: compaction.ReasonManual}
	value := make([]byte, valueBytes)
	for r := 0; r < runs; r++ {
		entries := make([]iterator.KV, perRun)
		for i := range entries {
			n := i*runs + r
			entries[i] = iterator.KV{K: ik(fmt.Sprintf("user%019d", n), uint64(n+1)), V: value}
		}
		metas, err := db.writeTables(iterator.NewSlice(entries), 0)
		if err != nil {
			b.Fatal(err)
		}
		c.Inputs = append(c.Inputs, metas...)
	}

	var mallocs uint64
	var ms runtime.MemStats
	b.SetBytes(c.InputBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		metas, _, err := db.writeCompactionTables(c, 0, false, nil)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		var entries int
		for _, m := range metas {
			h, err := db.tableCache.Acquire(m)
			if err != nil {
				b.Fatal(err)
			}
			entries += h.Reader.NumEntries()
			h.Release()
			db.tableCache.Evict(m.Num)
		}
		if entries != runs*perRun {
			b.Fatalf("merged %d entries, want %d", entries, runs*perRun)
		}
		// The outputs were never installed; drop their file so the
		// in-memory filesystem does not grow with b.N.
		if err := fs.Remove(manifest.TableFileName(metas[0].PhysNum)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(mallocs)/float64(b.N*runs*perRun), "allocs/entry")
}

// BenchmarkScanL0Runs measures 50-entry scans while three flushes of the
// benchmark's engine sit in level 0 with compactions held off: over two
// hundred logical SSTables that a scan reads as three sorted runs. It
// reports the number of sources a scan merges; allocs/op is deterministic
// and guarded by .github/alloc-baseline.txt (the root package's
// BenchmarkScan, on a compacted tree, is the row it is held against).
func BenchmarkScanL0Runs(b *testing.B) {
	cfg := benchmarkEngineConfig()
	cfg.BlockCacheBytes = 64 << 20 // every block stays cached: no miss allocates
	db := openTestDB(b, vfs.NewMem(), cfg)
	defer db.Close()
	fillFlushes(b, db, 3)
	db.mu.Lock()
	v := db.vs.Current()
	sources := len(db.readSources(v, db.mem, db.imm))
	db.mu.Unlock()
	if len(v.Levels[0]) < 150 || len(v.Runs(0)) != 3 {
		b.Fatalf("level 0 holds %d tables in %d runs, want three whole flushes", len(v.Levels[0]), len(v.Runs(0)))
	}
	starts := make([][]byte, 1024)
	for i := range starts {
		starts[i] = []byte(fmt.Sprintf("user%019d", i*7919%1_000_003))
	}
	warm := db.NewIter(nil)
	for ok := warm.First(); ok; ok = warm.Next() {
	}
	if err := warm.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := db.NewIter(nil)
		n := 0
		for ok := it.SeekGE(starts[i%len(starts)]); ok && n < 50; ok = it.Next() {
			n++
		}
		if err := it.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sources), "sources")
}
