package cache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/sstable"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// fdEntry is a shared physical-file handle with reference counting so an
// evicted descriptor is only closed once no table reader uses it.
type fdEntry struct {
	mu sync.Mutex
	// file is set at creation and never reassigned; the single Close is
	// serialized by the closed flag flipping under mu.
	file   vfs.File //boltvet:guardedby none -- immutable after creation; Close-once via the closed flag
	refs   int      //boltvet:guardedby mu -- table readers + (1 while resident in the fd cache)
	closed bool     //boltvet:guardedby mu
}

// acquire takes a reference on behalf of a caller that already holds one
// (the leader handing out waiter references), so the entry cannot be
// concurrently closed.
func (e *fdEntry) acquire() {
	e.mu.Lock()
	e.refs++
	e.mu.Unlock()
}

// tryAcquire takes a reference unless the entry has already been closed.
// Cache lookups must use this, not acquire: lru.get returns the entry
// with the lru mutex released, so a concurrent Evict can drop the
// cache's last reference — closing the descriptor — before the getter
// takes its own. A false return means "evicted under you: re-open".
func (e *fdEntry) tryAcquire() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.refs++
	return true
}

func (e *fdEntry) release() {
	e.mu.Lock()
	e.refs--
	shouldClose := e.refs == 0 && !e.closed
	if shouldClose {
		e.closed = true
	}
	e.mu.Unlock()
	if shouldClose {
		_ = e.file.Close()
	}
}

// fdCall is one in-flight descriptor open shared by every goroutine that
// missed on the same physical file while it was being opened.
type fdCall struct {
	done chan struct{} //boltvet:guardedby none -- created once, closed once by the leader
	// waiters is written under the owning fdFlight.mu before done is
	// closed; the leader pre-acquires one reference per waiter at publish
	// time.
	waiters int      //boltvet:guardedby none -- written under the owning fdFlight.mu (a foreign mutex, outside the vocabulary)
	e       *fdEntry //boltvet:guardedby none -- written by the leader before close(done); read only after <-done
	err     error    //boltvet:guardedby none -- written by the leader before close(done); read only after <-done
}

// fdFlight is one shard of the FDCache's singleflight state. Flights are
// indexed by the same hash as the lru shards, so a key's lookup, recency
// update, and miss coalescing all live in one contention domain.
type fdFlight struct {
	mu       sync.Mutex
	inflight map[uint64]*fdCall //boltvet:guardedby mu
}

// FDCache caches open physical-file handles keyed by physical file number.
// This is BoLT's +FC element: with compaction files, many logical SSTables
// share one descriptor, so the filesystem open cost is paid once per
// compaction file instead of once per SSTable.
type FDCache struct {
	fs      vfs.FS                     //boltvet:guardedby none -- immutable after NewFDCache
	name    func(uint64) string        //boltvet:guardedby none -- immutable after NewFDCache
	lru     *sharded[uint64, *fdEntry] //boltvet:guardedby none -- immutable after NewFDCache; shards lock themselves
	flights []fdFlight                 //boltvet:guardedby none -- immutable slice after NewFDCache; each flight locks itself
}

// NewFDCache returns an fd cache over fs holding up to capacity handles
// split across shards LRU shards (0 = auto-size to GOMAXPROCS, 1 =
// single lock).
func NewFDCache(fs vfs.FS, capacity, shards int) *FDCache {
	return NewFDCacheNamed(fs, capacity, shards, manifest.TableFileName)
}

// NewFDCacheNamed is NewFDCache with a custom file-number-to-name mapping,
// so other append-only physical files — value-log segments — share the
// same sharded, singleflight descriptor discipline.
func NewFDCacheNamed(fs vfs.FS, capacity, shards int, name func(uint64) string) *FDCache {
	c := &FDCache{fs: fs, name: name}
	c.lru = newSharded[uint64, *fdEntry](shards, int64(capacity), mix64, func(_ uint64, e *fdEntry) {
		e.release() // drop the cache's own reference
	})
	c.flights = make([]fdFlight, c.lru.shardCount())
	for i := range c.flights {
		c.flights[i].inflight = make(map[uint64]*fdCall)
	}
	return c
}

// With runs fn with a referenced handle for file num, opening (and
// caching) it on miss. The reference is held for the duration of fn only;
// fn must not retain the file.
func (c *FDCache) With(num uint64, fn func(vfs.File) error) error {
	e, err := c.acquireEntry(num)
	if err != nil {
		return err
	}
	defer e.release()
	return fn(e.file)
}

// Acquire returns a referenced handle for physical file physNum, opening
// it on miss. Callers must call release (via the returned entry) when done.
// Concurrent misses on the same file are coalesced into one open: exactly
// one goroutine touches the filesystem, the rest wait and share its handle.
func (c *FDCache) acquireEntry(physNum uint64) (*fdEntry, error) {
	if e, ok := c.lru.get(physNum); ok && e.tryAcquire() {
		return e, nil
	}
	fl := &c.flights[c.lru.shardIndex(physNum)]
	fl.mu.Lock()
	if call, ok := fl.inflight[physNum]; ok {
		call.waiters++
		fl.mu.Unlock()
		<-call.done
		if call.err != nil {
			return nil, call.err
		}
		// The leader acquired this waiter's reference before publishing.
		return call.e, nil
	}
	if e, ok := c.lru.get(physNum); ok && e.tryAcquire() {
		// A previous flight completed between the miss and taking fl.mu.
		fl.mu.Unlock()
		return e, nil
	}
	call := &fdCall{done: make(chan struct{})}
	fl.inflight[physNum] = call
	fl.mu.Unlock()

	f, err := c.fs.Open(c.name(physNum))
	if err != nil {
		call.err = fmt.Errorf("cache: open file %d (%s): %w", physNum, c.name(physNum), err)
		fl.mu.Lock()
		delete(fl.inflight, physNum)
		fl.mu.Unlock()
		close(call.done)
		return nil, call.err
	}
	e := &fdEntry{file: f, refs: 1} // the cache's reference
	e.acquire()                     // the caller's reference
	c.lru.insert(physNum, e, 1)
	call.e = e
	fl.mu.Lock()
	delete(fl.inflight, physNum)
	waiters := call.waiters
	fl.mu.Unlock()
	// No waiter can join after the delete above, so the count is final;
	// the leader's own reference keeps e open while these are taken.
	for i := 0; i < waiters; i++ {
		e.acquire()
	}
	close(call.done)
	return e, nil
}

// Evict drops the cached handle for physNum (called when the physical file
// is deleted).
func (c *FDCache) Evict(physNum uint64) { c.lru.remove(physNum) }

// Stats returns hit/miss counters aggregated across shards.
func (c *FDCache) Stats() (hits, misses int64) { return c.lru.stats() }

// Len returns the number of resident handles.
func (c *FDCache) Len() int { return c.lru.len() }

// Shards returns the shard count the cache was built with.
func (c *FDCache) Shards() int { return c.lru.shardCount() }

// Close evicts all handles.
func (c *FDCache) Close() { c.lru.clear() }

// Table is a cached open table: a reader plus its file reference.
type Table struct {
	Reader *sstable.Reader
	fd     *fdEntry
}

func (t *Table) close() {
	if t.fd != nil {
		t.fd.release()
	}
}

// tableCall is one in-flight table open shared by every goroutine that
// missed on the same table number while its metadata was being read.
type tableCall struct {
	done chan struct{} //boltvet:guardedby none -- created once, closed once by the leader
	// waiters is written under the owning tableFlight.mu before done is
	// closed; the leader pre-acquires one fd reference per waiter at
	// publish time.
	waiters int             //boltvet:guardedby none -- written under the owning tableFlight.mu (a foreign mutex, outside the vocabulary)
	r       *sstable.Reader //boltvet:guardedby none -- written by the leader before close(done); read only after <-done
	fd      *fdEntry        //boltvet:guardedby none -- written by the leader before close(done); read only after <-done
	err     error           //boltvet:guardedby none -- written by the leader before close(done); read only after <-done
}

// tableFlight is one shard of the TableCache's singleflight state,
// indexed by the same hash as the lru shards (see fdFlight).
type tableFlight struct {
	mu       sync.Mutex
	inflight map[uint64]*tableCall //boltvet:guardedby mu
}

// TableCache caches open table readers keyed by logical table number. Its
// capacity is a *table count*, mirroring LevelDB's max_open_files
// semantics that the paper's TableCache analysis (Section 2.6) depends on.
// A miss re-opens the table, which costs one metadata read of the table's
// filter+index blocks — proportional to table size.
type TableCache struct {
	fs         vfs.FS                   //boltvet:guardedby none -- immutable after NewTableCache
	fdCache    *FDCache                 //boltvet:guardedby none -- immutable after NewTableCache; nil means descriptors are opened per table
	blockCache sstable.BlockCache       //boltvet:guardedby none -- immutable after NewTableCache
	cfg        sstable.Config           //boltvet:guardedby none -- immutable after NewTableCache
	lru        *sharded[uint64, *Table] //boltvet:guardedby none -- immutable after NewTableCache; shards lock themselves
	flights    []tableFlight            //boltvet:guardedby none -- immutable slice after NewTableCache; each flight locks itself

	// metaBytesRead accumulates the bytes of filter+index fetched on
	// misses — the metadata-caching overhead measured in Figure 6. The
	// singleflight path charges it once per actual read, not once per
	// racing caller.
	metaBytesRead atomic.Int64 //boltvet:guardedby atomic
}

// NewTableCache returns a table cache holding up to capacity tables split
// across shards LRU shards (0 = auto-size to GOMAXPROCS, 1 = single
// lock). fdCache may be nil (the +FC optimization disabled): each cached
// table then owns a private descriptor opened at miss time.
func NewTableCache(fs vfs.FS, capacity, shards int, fdCache *FDCache, blockCache sstable.BlockCache, cfg sstable.Config) *TableCache {
	c := &TableCache{fs: fs, fdCache: fdCache, blockCache: blockCache, cfg: cfg}
	c.lru = newSharded[uint64, *Table](shards, int64(capacity), mix64, func(_ uint64, t *Table) {
		t.close()
	})
	c.flights = make([]tableFlight, c.lru.shardCount())
	for i := range c.flights {
		c.flights[i].inflight = make(map[uint64]*tableCall)
	}
	return c
}

// Handle is a referenced open table. The reference keeps the underlying
// file descriptor open even if the table is evicted from the cache
// meanwhile; Release drops it and must be called exactly once, after any
// iterator built on Reader is done. It is a plain value, so taking and
// releasing a table costs no allocation.
//
//boltvet:mustclose
type Handle struct {
	Reader *sstable.Reader
	fd     *fdEntry
}

// Release drops the handle's reference.
func (h Handle) Release() { h.fd.release() }

// Acquire returns a referenced handle on the open table for meta.
// Concurrent misses on the same table coalesce into one metadata read:
// exactly one goroutine opens the descriptor and reads filter+index, the
// rest wait and share the resulting reader.
func (c *TableCache) Acquire(meta *manifest.FileMeta) (Handle, error) {
	if t, ok := c.lru.get(meta.Num); ok && t.fd.tryAcquire() {
		return Handle{t.Reader, t.fd}, nil
	}
	fl := &c.flights[c.lru.shardIndex(meta.Num)]
	fl.mu.Lock()
	if call, ok := fl.inflight[meta.Num]; ok {
		call.waiters++
		fl.mu.Unlock()
		<-call.done
		if call.err != nil {
			return Handle{}, call.err
		}
		// The leader acquired this waiter's fd reference before publishing.
		return Handle{call.r, call.fd}, nil
	}
	if t, ok := c.lru.get(meta.Num); ok && t.fd.tryAcquire() {
		// A previous flight completed between the miss and taking fl.mu.
		fl.mu.Unlock()
		return Handle{t.Reader, t.fd}, nil
	}
	call := &tableCall{done: make(chan struct{})}
	fl.inflight[meta.Num] = call
	fl.mu.Unlock()

	r, fd, err := c.openTable(meta)
	if err != nil {
		call.err = err
		fl.mu.Lock()
		delete(fl.inflight, meta.Num)
		fl.mu.Unlock()
		close(call.done)
		return Handle{}, err
	}
	fd.acquire() // the caller's reference
	c.lru.insert(meta.Num, &Table{Reader: r, fd: fd}, 1)
	call.r, call.fd = r, fd
	fl.mu.Lock()
	delete(fl.inflight, meta.Num)
	waiters := call.waiters
	fl.mu.Unlock()
	// No waiter can join after the delete above, so the count is final;
	// the leader's own reference keeps fd open while these are taken.
	for i := 0; i < waiters; i++ {
		fd.acquire()
	}
	close(call.done)
	return Handle{r, fd}, nil
}

// Get is Acquire with the handle unpacked into its reader and a release
// function. The function value costs an allocation per call; the engine's
// read paths use Acquire.
func (c *TableCache) Get(meta *manifest.FileMeta) (*sstable.Reader, func(), error) {
	h, err := c.Acquire(meta)
	if err != nil {
		return nil, nil, err
	}
	return h.Reader, h.Release, nil
}

// openTable performs the miss work: one descriptor acquisition and one
// filter+index metadata read, charged once to metaBytesRead.
func (c *TableCache) openTable(meta *manifest.FileMeta) (*sstable.Reader, *fdEntry, error) {
	var (
		fd  *fdEntry
		f   vfs.File
		err error
	)
	if c.fdCache != nil {
		fd, err = c.fdCache.acquireEntry(meta.PhysNum)
		if err != nil {
			return nil, nil, err
		}
		f = fd.file
	} else {
		f, err = c.fs.Open(manifest.TableFileName(meta.PhysNum))
		if err != nil {
			return nil, nil, fmt.Errorf("cache: open table file %d: %w", meta.PhysNum, err)
		}
		fd = &fdEntry{file: f, refs: 1}
	}
	r, err := sstable.OpenReader(f, meta.Num, meta.PhysNum, meta.Offset, meta.Size, c.blockCache)
	if err != nil {
		fd.release()
		return nil, nil, fmt.Errorf("cache: open table %d: %w", meta.Num, err)
	}
	c.metaBytesRead.Add(r.MetaSize())
	return r, fd, nil
}

// Evict drops the cached reader for a table (called when the table is
// deleted).
func (c *TableCache) Evict(num uint64) { c.lru.remove(num) }

// MetaBytesRead returns the cumulative filter+index bytes fetched on
// misses.
func (c *TableCache) MetaBytesRead() int64 {
	return c.metaBytesRead.Load()
}

// Stats returns hit/miss counters aggregated across shards.
func (c *TableCache) Stats() (hits, misses int64) { return c.lru.stats() }

// Len returns the number of cached tables.
func (c *TableCache) Len() int { return c.lru.len() }

// Shards returns the shard count the cache was built with.
func (c *TableCache) Shards() int { return c.lru.shardCount() }

// Close evicts everything.
func (c *TableCache) Close() { c.lru.clear() }
