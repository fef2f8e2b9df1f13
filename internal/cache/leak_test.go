package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/sstable"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// handleCountFS counts net open handles so leak tests can assert that
// every descriptor opened by the caches is eventually closed. An optional
// openGate blocks Open until released, letting tests pile goroutines onto
// one miss deterministically.
type handleCountFS struct {
	vfs.FS
	opens  atomic.Int64
	closes atomic.Int64

	mu       sync.Mutex
	openGate chan struct{}
}

func (fs *handleCountFS) setGate(gate chan struct{}) {
	fs.mu.Lock()
	fs.openGate = gate
	fs.mu.Unlock()
}

func (fs *handleCountFS) Open(name string) (vfs.File, error) {
	fs.mu.Lock()
	gate := fs.openGate
	fs.mu.Unlock()
	if gate != nil {
		<-gate
	}
	f, err := fs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	fs.opens.Add(1)
	return &handleCountFile{File: f, fs: fs}, nil
}

func (fs *handleCountFS) openHandles() int64 { return fs.opens.Load() - fs.closes.Load() }

type handleCountFile struct {
	vfs.File
	fs *handleCountFS
}

func (f *handleCountFile) Close() error {
	f.fs.closes.Add(1)
	return f.File.Close()
}

// TestLRUInsertEvictsDisplacedValue is the unit-level regression for the
// fd leak: replacing a key's value must run onEvict on the displaced
// value, since the concrete caches hold a reference on behalf of every
// resident value.
func TestLRUInsertEvictsDisplacedValue(t *testing.T) {
	var evicted []int
	c := newLRU[string, int](10, func(_ string, v int) { evicted = append(evicted, v) })
	c.insert("a", 1, 1)
	c.insert("a", 2, 1)
	if len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("displaced value not evicted: evicted=%v", evicted)
	}
	if v, _ := c.get("a"); v != 2 {
		t.Fatalf("a = %d, want the replacement", v)
	}
	c.clear()
	if len(evicted) != 2 || evicted[1] != 2 {
		t.Fatalf("clear did not evict the survivor: evicted=%v", evicted)
	}
}

// TestLRUInsertAfterClearEvictsImmediately covers the Get-racing-Close
// window: an insert that lands after clear must not strand a referenced
// value in a cache nobody will ever clear again.
func TestLRUInsertAfterClearEvictsImmediately(t *testing.T) {
	var evicted []int
	c := newLRU[string, int](10, func(_ string, v int) { evicted = append(evicted, v) })
	c.clear()
	c.insert("a", 7, 1)
	if len(evicted) != 1 || evicted[0] != 7 {
		t.Fatalf("post-clear insert not evicted: evicted=%v", evicted)
	}
	if c.len() != 0 {
		t.Fatalf("len = %d after post-clear insert", c.len())
	}
}

// TestTableCacheRacingMissLeak is the end-to-end fd-leak regression: many
// goroutines race misses on the same tables, everything is released and
// closed, and the net open-handle count must come back to zero. On the
// pre-fix lru.insert (silent overwrite, no singleflight) the displaced
// entries' descriptors stayed open forever and this test fails.
func TestTableCacheRacingMissLeak(t *testing.T) {
	// The regression must hold per shard and across shards: run the same
	// 1000-racing-misses workload on the single-lock layout and on a
	// sharded one (where per-shard capacity is a fraction of the total
	// and misses on different tables coalesce in different flights).
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testTableCacheRacingMissLeak(t, shards)
		})
	}
}

func testTableCacheRacingMissLeak(t *testing.T, shards int) {
	fs := &handleCountFS{FS: vfs.NewMem()}
	const tables = 4
	var metas []*manifest.FileMeta
	for i := uint64(1); i <= tables; i++ {
		metas = append(metas, buildTableFile(t, fs, i, 20))
	}

	tc := NewTableCache(fs, tables, shards, nil, nil, sstable.Config{})
	const goroutines = 8
	const rounds = 125 // x8 goroutines = 1000 racing Get attempts
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				m := metas[(g+i)%tables]
				r, release, err := tc.Get(m)
				if err != nil {
					t.Error(err)
					return
				}
				if r.NumEntries() != 20 {
					t.Errorf("entries = %d", r.NumEntries())
				}
				release()
				// Evict to force the next Get on this table to miss,
				// keeping the racing-miss path hot.
				tc.Evict(m.Num)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	tc.Close()

	if n := fs.openHandles(); n != 0 {
		t.Fatalf("leaked %d file handles after %d racing misses (opened %d, closed %d)",
			n, goroutines*rounds, fs.opens.Load(), fs.closes.Load())
	}
}

// TestTableCacheSingleflightChargesOnce gates the filesystem open so a
// pack of goroutines provably piles onto one miss, then asserts the
// Figure-6 metadata accounting charged exactly one read and the
// filesystem saw exactly one open.
func TestTableCacheSingleflightChargesOnce(t *testing.T) {
	fs := &handleCountFS{FS: vfs.NewMem()}
	m := buildTableFile(t, fs, 1, 50)
	tc := NewTableCache(fs, 4, 4, nil, nil, sstable.Config{})
	defer tc.Close()

	gate := make(chan struct{})
	fs.setGate(gate)
	const goroutines = 8
	var wg sync.WaitGroup
	releases := make(chan func(), goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, release, err := tc.Get(m)
			if err != nil {
				t.Error(err)
				return
			}
			releases <- release
		}()
	}
	close(gate)
	wg.Wait()
	close(releases)
	for release := range releases {
		release()
	}

	if n := fs.opens.Load(); n != 1 {
		t.Fatalf("%d filesystem opens for one coalesced miss, want 1", n)
	}
	r, release, err := tc.Get(m)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if got := tc.MetaBytesRead(); got != r.MetaSize() {
		t.Fatalf("metaBytesRead = %d, want exactly one metadata read of %d bytes", got, r.MetaSize())
	}
}

// TestFDCacheRacingMissLeak is the same regression at the descriptor
// layer: racing acquireEntry calls plus evictions must not leak handles.
func TestFDCacheRacingMissLeak(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testFDCacheRacingMissLeak(t, shards)
		})
	}
}

func testFDCacheRacingMissLeak(t *testing.T, shards int) {
	fs := &handleCountFS{FS: vfs.NewMem()}
	const files = 3
	for i := uint64(1); i <= files; i++ {
		buildTableFile(t, fs, i, 5)
	}
	fdc := NewFDCache(fs, files, shards)
	const goroutines = 8
	const rounds = 125
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				phys := uint64((g+i)%files + 1)
				e, err := fdc.acquireEntry(phys)
				if err != nil {
					t.Error(err)
					return
				}
				buf := make([]byte, 1)
				if _, err := e.file.ReadAt(buf, 0); err != nil {
					t.Errorf("read on held entry: %v", err)
				}
				e.release()
				fdc.Evict(phys)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	fdc.Close()

	if n := fs.openHandles(); n != 0 {
		t.Fatalf("leaked %d descriptors (opened %d, closed %d)", n, fs.opens.Load(), fs.closes.Load())
	}
}

// TestTableCacheGetEvictCloseStress races Get, Evict, and Close across
// overlapping tables; run under -race in CI. Whatever interleaving
// happens, no handle may remain open once all references are released.
func TestTableCacheGetEvictCloseStress(t *testing.T) {
	fs := &handleCountFS{FS: vfs.NewMem()}
	const tables = 6
	var metas []*manifest.FileMeta
	for i := uint64(1); i <= tables; i++ {
		metas = append(metas, buildTableFile(t, fs, i, 10))
	}
	fdc := NewFDCache(fs, 4, 4)
	tc := NewTableCache(fs, 3, 4, fdc, nil, sstable.Config{})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m := metas[(g*7+i)%tables]
				r, release, err := tc.Get(m)
				if err != nil {
					continue // Close may have raced the open; that's the point
				}
				it := r.NewIter(sstable.IterOpts{})
				it.First()
				it.Close()
				release()
				if i%3 == 0 {
					tc.Evict(m.Num)
				}
				if i%5 == 0 {
					fdc.Evict(m.PhysNum)
				}
			}
		}(g)
	}
	// Let the workers run, then race Close against them.
	for i := 0; i < 1000; i++ {
		tc.Len()
	}
	tc.Close()
	fdc.Close()
	close(stop)
	wg.Wait()

	if n := fs.openHandles(); n != 0 {
		t.Fatalf("leaked %d handles after Get/Evict/Close stress (opened %d, closed %d)",
			n, fs.opens.Load(), fs.closes.Load())
	}
}

// TestFDCacheAcquireEvictRace pins the get-then-acquire window: lru.get
// returns the entry with the lru mutex released, so a concurrent Evict
// could drop the cache's last reference — closing the descriptor — before
// the getter took its own. The acquirer must detect the closed entry and
// fall back to opening a fresh one instead of resurrecting it.
func TestFDCacheAcquireEvictRace(t *testing.T) {
	fs := &handleCountFS{FS: vfs.NewMem()}
	buildTableFile(t, fs, 1, 5)
	fdc := NewFDCache(fs, 2, 4)

	stop := make(chan struct{})
	var evictors sync.WaitGroup
	evictors.Add(1)
	go func() {
		defer evictors.Done()
		for {
			select {
			case <-stop:
				return
			default:
				fdc.Evict(1)
			}
		}
	}()

	const goroutines = 4
	const rounds = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 1)
			for i := 0; i < rounds; i++ {
				e, err := fdc.acquireEntry(1)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := e.file.ReadAt(buf, 0); err != nil {
					t.Errorf("read on held entry: %v", err)
					e.release()
					return
				}
				e.release()
			}
		}()
	}
	wg.Wait()
	close(stop)
	evictors.Wait()
	fdc.Close()

	if n := fs.openHandles(); n != 0 {
		t.Fatalf("leaked %d descriptors (opened %d, closed %d)", n, fs.opens.Load(), fs.closes.Load())
	}
}

// TestFDEntryTryAcquireAfterClose is the deterministic half of the race
// regression above: once release drops the last reference (closing the
// file), tryAcquire must refuse to resurrect the entry.
func TestFDEntryTryAcquireAfterClose(t *testing.T) {
	fs := &handleCountFS{FS: vfs.NewMem()}
	buildTableFile(t, fs, 1, 5)
	f, err := fs.Open(manifest.TableFileName(1))
	if err != nil {
		t.Fatal(err)
	}
	e := newFDEntry(f)
	if !e.tryAcquire() {
		t.Fatal("tryAcquire refused a live entry")
	}
	e.release()
	e.release() // last reference: closes the file
	if fs.openHandles() != 0 {
		t.Fatalf("file not closed on last release (open handles: %d)", fs.openHandles())
	}
	if e.tryAcquire() {
		t.Fatal("tryAcquire resurrected a closed entry")
	}
}
