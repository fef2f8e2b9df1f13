package cache

import (
	"runtime"
	"sync"
)

// maxCacheShards caps both auto-sizing and explicit requests. Past this
// point additional shards stop reducing contention (the engine never runs
// that many concurrent readers) and only fragment capacity.
const maxCacheShards = 64

// resolveShardCount maps the CacheShards knob to the shard count actually
// built: a non-positive request auto-sizes to GOMAXPROCS at construction
// time, and every count is rounded up to a power of two (so shard
// selection is a mask, not a modulo) and capped at maxCacheShards.
func resolveShardCount(requested int) int {
	n := requested
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > maxCacheShards {
		n = maxCacheShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// mix64 is a 64-bit finalizer (SplitMix64's) that diffuses every input
// bit across the output. The caches key on small dense integers (file and
// table numbers, block offsets); without mixing, consecutive numbers
// would stripe shards in lockstep with allocation order.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sharded hash-partitions keys across independent lru shards so
// concurrent gets contend on one shard's mutex each instead of a single
// cache-wide lock. Capacity is split evenly with the remainder spread one
// unit at a time over the leading shards; newLRU clamps a shard's slice
// to at least 1 so aggressive splits cannot produce a shard that can
// never hold an entry.
type sharded[K comparable, V any] struct {
	// All fields are set by newSharded and never reassigned.
	hash   func(K) uint64 //boltvet:guardedby none -- immutable after newSharded
	mask   uint64         //boltvet:guardedby none -- immutable after newSharded
	shards []*lru[K, V]   //boltvet:guardedby none -- immutable after newSharded; each shard locks itself
}

func newSharded[K comparable, V any](shardCount int, capacity int64, hash func(K) uint64, onEvict func(K, V)) *sharded[K, V] {
	n := resolveShardCount(shardCount)
	s := &sharded[K, V]{
		hash:   hash,
		mask:   uint64(n - 1),
		shards: make([]*lru[K, V], n),
	}
	base := capacity / int64(n)
	rem := capacity % int64(n)
	for i := range s.shards {
		c := base
		if int64(i) < rem {
			c++
		}
		s.shards[i] = newLRU[K, V](c, onEvict)
	}
	return s
}

// shardIndex returns the shard owning key. refCache uses the same index
// for its flights, keeping "one shard = one contention domain" true across
// both structures.
func (s *sharded[K, V]) shardIndex(key K) int { return int(s.hash(key) & s.mask) }

func (s *sharded[K, V]) shard(key K) *lru[K, V] { return s.shards[s.shardIndex(key)] }

func (s *sharded[K, V]) shardCount() int { return len(s.shards) }

func (s *sharded[K, V]) get(key K) (V, bool) { return s.shard(key).get(key) }

func (s *sharded[K, V]) insert(key K, value V, charge int64) {
	s.shard(key).insert(key, value, charge)
}

func (s *sharded[K, V]) remove(key K) { s.shard(key).remove(key) }

func (s *sharded[K, V]) len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.len()
	}
	return n
}

func (s *sharded[K, V]) usedCharge() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.usedCharge()
	}
	return n
}

func (s *sharded[K, V]) stats() (hits, misses int64) {
	for _, sh := range s.shards {
		h, m := sh.stats()
		hits += h
		misses += m
	}
	return hits, misses
}

func (s *sharded[K, V]) clear() {
	for _, sh := range s.shards {
		sh.clear()
	}
}

// counted is what a refCache holds: a value whose lifetime an fdEntry's
// reference count tracks.
type counted interface{ entry() *fdEntry }

// refCache is a sharded lru of reference-counted values whose concurrent
// misses on one key coalesce into one open. The fd and table caches are
// both one.
type refCache[V counted] struct {
	lru     *sharded[uint64, V] //boltvet:guardedby none -- immutable after newRefCache; shards lock themselves
	flights []flight[V]         //boltvet:guardedby none -- immutable slice after newRefCache; each flight locks itself
}

// flight is one shard of a refCache's singleflight state, indexed by the
// same hash as the lru shards, so a key's lookup, recency update and miss
// coalescing all live in one contention domain.
type flight[V counted] struct {
	mu       sync.Mutex
	inflight map[uint64]*call[V] //boltvet:guardedby mu
}

// call is one in-flight open shared by every goroutine that missed on the
// same key while it ran.
type call[V counted] struct {
	done chan struct{} //boltvet:guardedby none -- created once, closed once by the leader
	// waiters is written under the owning flight.mu before done is closed;
	// the leader takes one reference per waiter at publish time.
	waiters int   //boltvet:guardedby none -- written under the owning flight.mu (a foreign mutex, outside the vocabulary)
	v       V     //boltvet:guardedby none -- written by the leader before close(done); read only after <-done
	err     error //boltvet:guardedby none -- written by the leader before close(done); read only after <-done
}

// newRefCache returns a refCache holding up to capacity values split
// across shards lru shards; an evicted value drops the cache's reference.
func newRefCache[V counted](shards int, capacity int64) *refCache[V] {
	c := &refCache[V]{lru: newSharded[uint64, V](shards, capacity, mix64, func(_ uint64, v V) {
		v.entry().release()
	})}
	c.flights = make([]flight[V], c.lru.shardCount())
	for i := range c.flights {
		c.flights[i].inflight = make(map[uint64]*call[V])
	}
	return c
}

// acquire returns the value for key with a reference taken for the
// caller, running open on a miss. open returns the value holding one
// reference, which becomes the cache's, or the zero value and an error.
// Concurrent misses on one key coalesce: exactly one goroutine (the
// leader) runs open, the rest wait and share its value.
func (c *refCache[V]) acquire(key uint64, open func() (V, error)) (V, error) {
	if v, ok := c.lru.get(key); ok && v.entry().tryAcquire() {
		return v, nil
	}
	fl := &c.flights[c.lru.shardIndex(key)]
	fl.mu.Lock()
	if cl, ok := fl.inflight[key]; ok {
		cl.waiters++
		fl.mu.Unlock()
		<-cl.done
		// The leader took this waiter's reference before publishing.
		return cl.v, cl.err
	}
	if v, ok := c.lru.get(key); ok && v.entry().tryAcquire() {
		// A previous flight completed between the miss and taking fl.mu.
		fl.mu.Unlock()
		return v, nil
	}
	cl := &call[V]{done: make(chan struct{})}
	fl.inflight[key] = cl
	fl.mu.Unlock()

	v, err := open()
	if err == nil {
		v.entry().acquire() // the caller's reference
		c.lru.insert(key, v, 1)
	}
	cl.v, cl.err = v, err
	fl.mu.Lock()
	delete(fl.inflight, key)
	waiters := cl.waiters
	fl.mu.Unlock()
	// No waiter can join after the delete above, so the count is final;
	// the leader's own reference keeps the value open while these are taken.
	for i := 0; err == nil && i < waiters; i++ {
		v.entry().acquire()
	}
	close(cl.done)
	return v, err
}

// Evict drops key's value (called when its file or table is deleted); the
// value closes once its last reference is released.
func (c *refCache[V]) Evict(key uint64) { c.lru.remove(key) }

// Stats returns hit/miss counters aggregated across shards.
func (c *refCache[V]) Stats() (hits, misses int64) { return c.lru.stats() }

// Len returns the number of resident values.
func (c *refCache[V]) Len() int { return c.lru.len() }

// Shards returns the shard count the cache was built with.
func (c *refCache[V]) Shards() int { return c.lru.shardCount() }

// Close evicts everything.
func (c *refCache[V]) Close() { c.lru.clear() }
