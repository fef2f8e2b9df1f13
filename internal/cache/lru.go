// Package cache implements the three caches of the engine:
//
//   - BlockCache: data blocks, capacity in bytes (LevelDB's block_cache).
//   - TableCache: open table readers (index + bloom metadata), capacity in
//     *number of tables* — the paper stresses that LevelDB sizes this cache
//     by file count (max_open_files), so large SSTables consume far more
//     memory per entry and a miss costs a metadata read proportional to the
//     table size.
//   - FDCache: open physical-file handles, keyed by physical file number.
//     BoLT's +FC optimization caches descriptors per compaction file;
//     without it every TableCache miss pays a filesystem open.
//
// All three are hash-sharded, and each shard is a CLOCK (second-chance)
// approximation of LRU: a hit is a map lookup and one reference bit set
// under the shard's mutex, and relinks nothing. Only an insert that must
// make room walks the ring.
package cache

import (
	"sync"
	"sync/atomic"
)

// lru is one cache shard: a map from key to a slot of a CLOCK ring, with
// per-entry charges and an eviction callback. Eviction callbacks always
// run with mu released, and every value that enters the cache is handed to
// onEvict exactly once on its way out — whether it is evicted by capacity,
// displaced by an insert on its key, removed, or cleared.
//
// Recency is one bit per slot, which get sets. insert makes room by
// sweeping a hand around the ring: a set bit is cleared and the entry
// passed over once, and the first clear bit is evicted. A new entry takes
// the slot the sweep last freed with its bit clear, so it sits just behind
// the hand and is the last the next sweep reaches. An entry hit since the
// hand last passed it survives one more sweep; an entry nobody touches is
// evicted by the next sweep that reaches it.
//
// The hit/miss/used counters are atomics, not mu-guarded state: get
// touches the mutex only for the lookup and the bit, and the
// stats/usedCharge readers never contend with it at all.
type lru[K comparable, V any] struct {
	// capacity and onEvict are immutable after newLRU.
	capacity int64      //boltvet:guardedby none -- immutable after newLRU
	onEvict  func(K, V) //boltvet:guardedby none -- immutable after newLRU

	// mu guards the ring below. It is a plain mutex, not a sync.RWMutex:
	// a hit holds it only for a map lookup, and RLock's reader count is
	// just as contended a word. On a 2-vCPU host the parallel cache
	// benchmarks at -cpu 2 ran 1.1-2.0x slower per hit under RLock.
	mu     sync.Mutex
	index  map[K]int32       //boltvet:guardedby mu -- key → slot
	slots  []clockSlot[K, V] //boltvet:guardedby mu -- the ring
	free   []int32           //boltvet:guardedby mu -- vacant slots, the most recently vacated last
	hand   int32             //boltvet:guardedby mu -- the next slot the sweep examines
	closed bool              //boltvet:guardedby mu

	// used is written only while mu is held (insert/remove/clear mutate
	// it together with the ring) but read lock-free by usedCharge.
	used   atomic.Int64 //boltvet:guardedby atomic
	hits   atomic.Int64 //boltvet:guardedby atomic
	misses atomic.Int64 //boltvet:guardedby atomic
}

// clockSlot is one position of the ring. A vacant slot has live false and
// zero key and value, so it pins nothing for the garbage collector.
type clockSlot[K comparable, V any] struct {
	key    K
	value  V
	charge int64
	live   bool
	ref    bool // set by a hit, cleared by the sweeping hand
}

// lruEntry is an evicted key and value on its way to onEvict.
type lruEntry[K comparable, V any] struct {
	key   K
	value V
}

// newLRU builds one cache shard. A non-positive capacity would otherwise
// build a cache that can never retain an entry (the callers' knobs treat
// zero as "use the default" long before this layer, so a non-positive
// value here is a bug or an aggressive shard split); clamp to 1 so the
// shard can always hold at least one entry.
func newLRU[K comparable, V any](capacity int64, onEvict func(K, V)) *lru[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[K, V]{
		capacity: capacity,
		index:    make(map[K]int32),
		onEvict:  onEvict,
	}
}

func (c *lru[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	if i, ok := c.index[key]; ok {
		s := &c.slots[i]
		s.ref = true
		v := s.value
		c.mu.Unlock()
		c.hits.Add(1)
		return v, true
	}
	c.mu.Unlock()
	c.misses.Add(1)
	var zero V
	return zero, false
}

// insert adds or replaces the entry for key. A value displaced by a
// same-key replacement is evicted through onEvict like any other — the
// fd/table caches hold a reference on behalf of each resident value, so
// silently dropping the old one would leak its descriptor. The
// replacement keeps the key's recency: it enters with its bit set, as a
// hit would leave it. Inserting into a closed cache evicts value
// immediately instead of retaining it.
func (c *lru[K, V]) insert(key K, value V, charge int64) {
	// Most inserts evict at most a couple of entries; the buffer keeps
	// their list off the heap.
	var buf [4]lruEntry[K, V]
	evicted := buf[:0]
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		if c.onEvict != nil {
			c.onEvict(key, value)
		}
		return
	}
	i, replaced := c.index[key]
	if replaced {
		evicted = append(evicted, c.vacateLocked(i))
	}
	if charge > c.capacity {
		// An entry whose charge alone exceeds capacity is evicted at once
		// instead of being pinned forever holding used > capacity: with
		// per-shard capacities a fraction of the cache total, one
		// oversized block would otherwise wedge its whole shard over
		// budget.
		evicted = append(evicted, lruEntry[K, V]{key, value})
	} else {
		// charge <= capacity, so while the sum exceeds it some entry is
		// resident with a positive charge: the sweep always finds one.
		for c.used.Load()+charge > c.capacity {
			evicted = append(evicted, c.sweepLocked())
		}
		c.placeLocked(key, value, charge, replaced)
	}
	c.mu.Unlock()
	if c.onEvict != nil {
		for _, e := range evicted {
			c.onEvict(e.key, e.value)
		}
	}
}

// sweepLocked advances the hand to the first live slot whose reference bit
// is clear, clearing the set bits it passes, and evicts that slot's entry.
// The cache must hold an entry; two turns of the ring always find one.
func (c *lru[K, V]) sweepLocked() lruEntry[K, V] {
	for {
		if int(c.hand) >= len(c.slots) {
			c.hand = 0
		}
		i := c.hand
		c.hand++
		s := &c.slots[i]
		switch {
		case !s.live:
		case s.ref:
			s.ref = false
		default:
			return c.vacateLocked(i)
		}
	}
}

// placeLocked stores an entry in the most recently vacated slot, or in a
// new one at the end of the ring.
func (c *lru[K, V]) placeLocked(key K, value V, charge int64, ref bool) {
	var i int32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		i = int32(len(c.slots))
		c.slots = append(c.slots, clockSlot[K, V]{})
	}
	s := &c.slots[i]
	s.key, s.value, s.charge, s.live, s.ref = key, value, charge, true, ref
	c.index[key] = i
	c.used.Add(charge)
}

// vacateLocked removes slot i's entry from the ring and returns it.
func (c *lru[K, V]) vacateLocked(i int32) lruEntry[K, V] {
	s := &c.slots[i]
	e := lruEntry[K, V]{s.key, s.value}
	delete(c.index, s.key)
	c.used.Add(-s.charge)
	var zeroK K
	var zeroV V
	s.key, s.value, s.charge, s.live, s.ref = zeroK, zeroV, 0, false, false
	c.free = append(c.free, i)
	return e
}

func (c *lru[K, V]) remove(key K) {
	c.mu.Lock()
	i, ok := c.index[key]
	var e lruEntry[K, V]
	if ok {
		e = c.vacateLocked(i)
	}
	c.mu.Unlock()
	if ok && c.onEvict != nil {
		c.onEvict(e.key, e.value)
	}
}

func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

func (c *lru[K, V]) usedCharge() int64 {
	return c.used.Load()
}

func (c *lru[K, V]) stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// clear evicts everything and closes the cache: later inserts evict their
// value immediately instead of retaining it, so a racing miss that
// completes after Close cannot strand a referenced entry.
func (c *lru[K, V]) clear() {
	c.mu.Lock()
	c.closed = true
	all := make([]lruEntry[K, V], 0, len(c.index))
	for i := range c.slots {
		if s := &c.slots[i]; s.live {
			all = append(all, lruEntry[K, V]{s.key, s.value})
		}
	}
	c.index = make(map[K]int32)
	c.slots, c.free, c.hand = nil, nil, 0
	c.used.Store(0)
	c.mu.Unlock()
	if c.onEvict != nil {
		for _, e := range all {
			c.onEvict(e.key, e.value)
		}
	}
}
