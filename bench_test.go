// bench_test.go hosts one testing.B benchmark per paper figure (the
// benchmark body runs the figure's full experiment and prints its data
// series) plus public-API micro benchmarks. Run them all with:
//
//	go test -bench=. -benchmem
//
// Figures run at bench.ScaleSmall; with -short they shrink further so CI
// stays fast. Use cmd/bolt-bench for medium/large scale runs.
package bolt_test

import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"github.com/bolt-lsm/bolt"
	"github.com/bolt-lsm/bolt/internal/bench"
)

func figureScale(b *testing.B) bench.Scale {
	if testing.Short() {
		s := bench.ScaleSmall
		s.LoadOps = 6000
		s.RunOps = 2000
		s.ValueSize = 256
		s.TimeScale = -1 // accounting only, no sleeps
		return s
	}
	// Default bench scale: a trimmed ScaleSmall so the full `go test
	// -bench=.` suite stays in the tens of minutes. Use cmd/bolt-bench
	// with -scale small|medium|large for the figure-quality series
	// recorded in EXPERIMENTS.md.
	s := bench.ScaleSmall
	s.Name = "bench"
	s.LoadOps = 16000
	s.RunOps = 5000
	return s
}

func benchmarkFigure(b *testing.B, id string) {
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	scale := figureScale(b)
	for i := 0; i < b.N; i++ {
		fmt.Fprintf(os.Stdout, "\n--- %s (%s, scale=%s) ---\n", e.ID, e.Title, scale.Name)
		if err := e.Run(bench.Params{Scale: scale, Out: os.Stdout}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4SSTableSizeSweep regenerates Figure 4: fsync count and
// insertion tail latency versus SSTable size in stock LevelDB.
func BenchmarkFig4SSTableSizeSweep(b *testing.B) { benchmarkFigure(b, "fig4") }

// BenchmarkFig6TableCacheEviction regenerates Figure 6: point-query
// latency with 2 MB vs 64 MB SSTables under a fixed TableCache budget.
func BenchmarkFig6TableCacheEviction(b *testing.B) { benchmarkFigure(b, "fig6") }

// BenchmarkFig11GroupCompactionSize regenerates Figure 11: fsync count
// versus BoLT group compaction size.
func BenchmarkFig11GroupCompactionSize(b *testing.B) { benchmarkFigure(b, "fig11") }

// BenchmarkFig12LevelDBAblation regenerates Figure 12(a): +LS/+GC/+STL/+FC
// over the LevelDB base.
func BenchmarkFig12LevelDBAblation(b *testing.B) { benchmarkFigure(b, "fig12a") }

// BenchmarkFig12HyperAblation regenerates Figure 12(b): the ablation over
// the HyperLevelDB base.
func BenchmarkFig12HyperAblation(b *testing.B) { benchmarkFigure(b, "fig12b") }

// BenchmarkFig13YCSBThroughput regenerates Figure 13: all seven stores
// across the YCSB suite, zipfian and uniform.
func BenchmarkFig13YCSBThroughput(b *testing.B) { benchmarkFigure(b, "fig13") }

// BenchmarkFig14TailLatency regenerates Figure 14: insertion (Load A) and
// read (workload C) tail latencies per store.
func BenchmarkFig14TailLatency(b *testing.B) { benchmarkFigure(b, "fig14") }

// BenchmarkFig15BoltVsRocks regenerates Figure 15: BoLT vs RocksDB on a
// memory-constrained database, including the 100-byte record-format
// crossover.
func BenchmarkFig15BoltVsRocks(b *testing.B) { benchmarkFigure(b, "fig15") }

// BenchmarkFig16TailLatencyCDF regenerates Figure 16: per-workload latency
// percentiles, BoLT vs RocksDB.
func BenchmarkFig16TailLatencyCDF(b *testing.B) { benchmarkFigure(b, "fig16") }

// --- Public-API micro benchmarks ---

func benchDB(b *testing.B, p bolt.Profile) *bolt.DB {
	b.Helper()
	db, err := bolt.OpenMem(&bolt.Options{
		Profile:       p,
		MemTableBytes: 4 << 20,
		SSTableBytes:  256 << 10,
		L1MaxBytes:    1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// benchKeys preformats n keys: the timed loops below measure the engine,
// not fmt.Sprintf.
func benchKeys(n int, format string) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf(format, i))
	}
	return keys
}

// BenchmarkPut measures the in-memory write path (WAL append + concurrent
// skiplist insert) per profile.
func BenchmarkPut(b *testing.B) {
	for _, p := range []bolt.Profile{bolt.ProfileLevelDB, bolt.ProfileBoLT, bolt.ProfileHyperLevelDB} {
		b.Run(p.String(), func(b *testing.B) {
			db := benchDB(b, p)
			value := make([]byte, 256)
			keys := benchKeys(b.N, "user%016d")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Put(keys[i], value); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGet measures point reads over a multi-level tree.
func BenchmarkGet(b *testing.B) {
	for _, p := range []bolt.Profile{bolt.ProfileLevelDB, bolt.ProfileBoLT, bolt.ProfilePebblesDB} {
		b.Run(p.String(), func(b *testing.B) {
			db := benchDB(b, p)
			value := make([]byte, 256)
			const n = 20000
			for i := 0; i < n; i++ {
				db.Put([]byte(fmt.Sprintf("user%016d", i)), value)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := []byte(fmt.Sprintf("user%016d", i%n))
				if _, err := db.Get(key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchTableDB loads n keys and compacts them all into tables, so every
// Get in the timed loop takes the table read path (index seek, block
// cache, block seek) regardless of b.N. The returned keys are
// preformatted: the timed loops measure the engine, not fmt.Sprintf.
func benchTableDB(b *testing.B, shards, n int) (*bolt.DB, [][]byte) {
	b.Helper()
	db, err := bolt.OpenMem(&bolt.Options{
		Profile:       bolt.ProfileBoLT,
		MemTableBytes: 4 << 20,
		SSTableBytes:  256 << 10,
		L1MaxBytes:    1 << 20,
		CacheShards:   shards,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	value := make([]byte, 256)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%016d", i))
		if err := db.Put(keys[i], value); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		b.Fatal(err)
	}
	return db, keys
}

// BenchmarkGetTable measures point reads against a fully table-resident
// working set — the deterministic read path the CI alloc guard tracks.
func BenchmarkGetTable(b *testing.B) {
	db, keys := benchTableDB(b, 0, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetTableVLog is BenchmarkGetTable with key-value separation
// enabled and every value below the threshold: the sub-threshold read
// path must be byte-for-byte the unseparated one (same allocs/op the CI
// guard tracks), since small values never touch the value log.
func BenchmarkGetTableVLog(b *testing.B) {
	db, err := bolt.OpenMem(&bolt.Options{
		Profile:        bolt.ProfileBoLT,
		MemTableBytes:  4 << 20,
		SSTableBytes:   256 << 10,
		L1MaxBytes:     1 << 20,
		ValueThreshold: 1024,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	value := make([]byte, 256)
	const n = 20000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%016d", i))
		if err := db.Put(keys[i], value); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetParallel measures concurrent cache-resident point reads with
// the caches pinned to one shard versus auto-sized sharding. Run with
// -cpu 8 to see the contention difference; at -cpu 1 the two configurations
// should be equivalent.
func BenchmarkGetParallel(b *testing.B) {
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"shards=1", 1},
		{"shards=auto", 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			db, keys := benchTableDB(b, tc.shards, 20000)
			var nextWorker atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Each worker strides the key space from its own phase, so
				// the union is uniform and no index state is shared.
				i := int(nextWorker.Add(1)) * 7919
				for pb.Next() {
					i += 9973
					if _, err := db.Get(keys[i%len(keys)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkScan measures 50-entry range scans.
func BenchmarkScan(b *testing.B) {
	db := benchDB(b, bolt.ProfileBoLT)
	value := make([]byte, 256)
	const n = 20000
	keys := benchKeys(n, "user%016d")
	for _, key := range keys {
		db.Put(key, value)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := db.NewIterator(nil)
		cnt := 0
		for ok := it.SeekGE(keys[(i*997)%n]); ok && cnt < 50; ok = it.Next() {
			cnt++
		}
		it.Close()
	}
}

// BenchmarkBatchCommit measures group-commit throughput with 100-op
// batches.
func BenchmarkBatchCommit(b *testing.B) {
	db := benchDB(b, bolt.ProfileHyperBoLT)
	value := make([]byte, 128)
	// 1024 distinct batches, reused in turn: a later round overwrites the
	// keys of an earlier one, which costs the write path the same as an
	// insert and keeps the key set's memory out of the measurement.
	const rounds = 1024
	keys := benchKeys(100*rounds, "user%014d")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := bolt.NewBatch()
		first := 100 * (i % rounds)
		for _, key := range keys[first : first+100] {
			batch.Put(key, value)
		}
		if err := db.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
}
