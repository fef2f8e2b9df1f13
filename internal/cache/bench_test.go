package cache

import (
	"sync/atomic"
	"testing"

	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/sstable"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// BenchmarkBlockCacheGetParallel hammers a cache-resident working set from
// parallel goroutines. A hit takes its shard's read lock and sets one
// reference bit, so with shards=1 the goroutines still share one lock
// word; sharding spreads them across independent ones. Run with -cpu 1,2
// (or more) to see the contention.
func BenchmarkBlockCacheGetParallel(b *testing.B) {
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"shards=1", 1},
		{"shards=auto", 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			// 2x headroom: hashing spreads keys only approximately evenly,
			// and a shard that exceeds its slice of the budget would evict.
			const n = 4096
			c := NewBlockCache(2*n*(128+64), tc.shards)
			payload := make([]byte, 128)
			for i := 0; i < n; i++ {
				c.Insert(7, int64(i)*4096, payload)
			}
			var nextWorker atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(nextWorker.Add(1)) * 7919
				for pb.Next() {
					i += 9973
					if _, ok := c.Get(7, int64(i%n)*4096); !ok {
						b.Fatal("cache-resident key missed")
					}
				}
			})
		})
	}
}

// BenchmarkTableCacheAcquireParallel measures the table cache's hit path
// from parallel goroutines: a shard lookup, a lock-free reference taken
// on the table's handle, and its release. Every table is resident, so no
// iteration opens a file. Run with -cpu 1,2.
func BenchmarkTableCacheAcquireParallel(b *testing.B) {
	const tables = 64
	fs := vfs.NewMem()
	metas := make([]*manifest.FileMeta, tables)
	for i := range metas {
		metas[i] = buildTableFile(b, fs, uint64(i+1), 10)
	}
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"shards=1", 1},
		{"shards=auto", 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			fdc := NewFDCache(fs, 2*tables, tc.shards)
			defer fdc.Close()
			c := NewTableCache(fs, 2*tables, tc.shards, fdc, nil, sstable.Config{})
			defer c.Close()
			for _, m := range metas {
				h, err := c.Acquire(m)
				if err != nil {
					b.Fatal(err)
				}
				h.Release()
			}
			var nextWorker atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(nextWorker.Add(1)) * 7
				for pb.Next() {
					i += 13
					h, err := c.Acquire(metas[i%tables])
					if err != nil {
						b.Fatal(err)
					}
					h.Release()
				}
			})
		})
	}
}
