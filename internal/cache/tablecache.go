package cache

import (
	"fmt"
	"sync/atomic"

	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/sstable"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// fdEntry is a shared physical-file handle with reference counting so an
// evicted descriptor is only closed once no table reader uses it. The
// count is one atomic word and a count of zero means closed: taking and
// dropping a reference on a cache hit locks nothing.
type fdEntry struct {
	// file is set at creation and never reassigned; the 1 → 0 transition
	// of refs, which happens once, closes it.
	file vfs.File     //boltvet:guardedby none -- immutable after newFDEntry; closed once, by the release that drops refs to 0
	refs atomic.Int32 //boltvet:guardedby atomic -- table readers + (1 while resident in the fd cache); 0 = closed
}

// newFDEntry wraps an open file in an entry holding one reference, its
// creator's.
func newFDEntry(f vfs.File) *fdEntry {
	e := &fdEntry{file: f}
	e.refs.Store(1)
	return e
}

// acquire takes a reference on behalf of a caller that already holds one
// (the leader handing out waiter references), so the entry cannot be
// concurrently closed.
func (e *fdEntry) acquire() { e.refs.Add(1) }

// tryAcquire takes a reference unless the entry has already been closed.
// Cache lookups must use this, not acquire: lru.get returns the entry
// with the shard lock released, so a concurrent Evict can drop the
// cache's last reference — closing the descriptor — before the getter
// takes its own. It never moves the count off zero, so a closed entry
// stays closed. A false return means "evicted under you: re-open".
func (e *fdEntry) tryAcquire() bool {
	for {
		n := e.refs.Load()
		if n <= 0 {
			return false
		}
		if e.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (e *fdEntry) entry() *fdEntry { return e }

// release drops a reference; the one that drops the last closes the file.
func (e *fdEntry) release() {
	if e.refs.Add(-1) == 0 {
		_ = e.file.Close()
	}
}

// FDCache caches open physical-file handles keyed by physical file number.
// This is BoLT's +FC element: with compaction files, many logical SSTables
// share one descriptor, so the filesystem open cost is paid once per
// compaction file instead of once per SSTable.
type FDCache struct {
	*refCache[*fdEntry]
	fs   vfs.FS              //boltvet:guardedby none -- immutable after NewFDCache
	name func(uint64) string //boltvet:guardedby none -- immutable after NewFDCache
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
	return &FDCache{refCache: newRefCache[*fdEntry](shards, int64(capacity)), fs: fs, name: name}
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

// acquireEntry returns a referenced handle for physical file physNum,
// opening it on miss; the caller releases it. Concurrent misses on the
// same file are coalesced into one open.
func (c *FDCache) acquireEntry(physNum uint64) (*fdEntry, error) {
	return c.acquire(physNum, func() (*fdEntry, error) {
		f, err := c.fs.Open(c.name(physNum))
		if err != nil {
			return nil, fmt.Errorf("cache: open file %d (%s): %w", physNum, c.name(physNum), err)
		}
		return newFDEntry(f), nil
	})
}

// TableCache caches open table readers keyed by logical table number. Its
// capacity is a *table count*, mirroring LevelDB's max_open_files
// semantics that the paper's TableCache analysis (Section 2.6) depends on.
// A miss re-opens the table, which costs one metadata read of the table's
// filter+index blocks — proportional to table size.
type TableCache struct {
	*refCache[Handle]
	fs         vfs.FS             //boltvet:guardedby none -- immutable after NewTableCache
	fdCache    *FDCache           //boltvet:guardedby none -- immutable after NewTableCache; nil means descriptors are opened per table
	blockCache sstable.BlockCache //boltvet:guardedby none -- immutable after NewTableCache

	// metaBytesRead accumulates the bytes of filter+index fetched on
	// misses — the metadata-caching overhead measured in Figure 6. The
	// singleflight path charges it once per actual read, not once per
	// racing caller.
	metaBytesRead atomic.Int64 //boltvet:guardedby atomic
}

// NewTableCache returns a table cache holding up to capacity tables split
// across shards LRU shards (0 = auto-size to GOMAXPROCS, 1 = single
// lock). fdCache may be nil (the +FC optimization disabled): each cached
// table then owns a private descriptor opened at miss time. The writer
// configuration is not used: a table's footer describes its format.
func NewTableCache(fs vfs.FS, capacity, shards int, fdCache *FDCache, blockCache sstable.BlockCache, _ sstable.Config) *TableCache {
	return &TableCache{refCache: newRefCache[Handle](shards, int64(capacity)),
		fs: fs, fdCache: fdCache, blockCache: blockCache}
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

func (h Handle) entry() *fdEntry { return h.fd }

// Acquire returns a referenced handle on the open table for meta.
// Concurrent misses on the same table coalesce into one metadata read:
// exactly one goroutine opens the descriptor and reads filter+index, the
// rest wait and share the resulting reader.
func (c *TableCache) Acquire(meta *manifest.FileMeta) (Handle, error) {
	return c.acquire(meta.Num, func() (Handle, error) { return c.openTable(meta) })
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
// filter+index metadata read, charged once to metaBytesRead. The handle
// holds one reference, the cache's.
func (c *TableCache) openTable(meta *manifest.FileMeta) (Handle, error) {
	var fd *fdEntry
	if c.fdCache != nil {
		var err error
		if fd, err = c.fdCache.acquireEntry(meta.PhysNum); err != nil {
			return Handle{}, err
		}
	} else {
		f, err := c.fs.Open(manifest.TableFileName(meta.PhysNum))
		if err != nil {
			return Handle{}, fmt.Errorf("cache: open table file %d: %w", meta.PhysNum, err)
		}
		fd = newFDEntry(f)
	}
	r, err := sstable.OpenReader(fd.file, meta.Num, meta.PhysNum, meta.Offset, meta.Size, c.blockCache)
	if err != nil {
		fd.release()
		return Handle{}, fmt.Errorf("cache: open table %d: %w", meta.Num, err)
	}
	c.metaBytesRead.Add(r.MetaSize())
	return Handle{r, fd}, nil
}

// MetaBytesRead returns the cumulative filter+index bytes fetched on
// misses.
func (c *TableCache) MetaBytesRead() int64 {
	return c.metaBytesRead.Load()
}
