// Package memtable implements the in-memory write buffer as a concurrent
// skiplist. Inserts use per-level compare-and-swap so multiple writers can
// insert simultaneously (HyperLevelDB's write-path parallelism relies on
// this); readers never take locks. Entries are internal keys, so multiple
// versions of one user key coexist, newest first.
//
// Every entry lives in pointer-free arenas, so an insert allocates no heap
// object and the garbage collector never scans the memtable:
//
//   - A node is a record of uint32 words in a node chunk: where the
//     entry's internal key and value sit (chunk, offset and length of
//     each), the first eight bytes of its user key, then one next link per
//     level. A node is named by the index of its first word; index 0 is
//     nil.
//   - Internal keys and values sit in byte chunks of two arenas. Byte
//     chunks start at 4 KiB and double up to 1 MiB; an entry larger than
//     the next chunk gets a chunk of its own. Node chunks start at 1 KiB
//     and double up to 64 KiB, so an empty memtable costs little to make.
//
// A search step reads the node's record and, only when the eight-byte
// prefixes tie, its key bytes, which sit densely packed apart from the
// values. Where prefixes mostly differ, as on YCSB keys, that wins back
// the chunk-directory hops a pointer-linked node did not pay.
//
// Chunks never move. Each arena's chunk directory is published through an
// atomic pointer and only grows, so a reader keeps a snapshot of it and
// reloads it only when an index falls past it. A short mutex covers the
// bump allocation alone; links are still placed with CAS.
package memtable

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"github.com/bolt-lsm/bolt/internal/iterator"
	"github.com/bolt-lsm/bolt/internal/keys"
)

const maxHeight = 12

// The words of a node record.
const (
	wKeyChunk = iota // index of the key chunk holding the internal key
	wKeyOff          // offset of the internal key in that chunk
	wKeyLen
	wValChunk
	wValOff
	wValLen   // 0 for an empty value, which takes no arena bytes
	wPrefixHi // prefixOf(user key) >> 32
	wPrefixLo // prefixOf(user key) & 0xffffffff
	wNext     // the link at level l is word wNext+l
)

const (
	// Node chunk c holds the words indexed c<<nodeChunkShift up to its
	// length; the chunks double from nodeChunkMin to nodeChunkMax words.
	nodeChunkShift = 14
	nodeChunkMax   = 1 << nodeChunkShift // 64 KiB
	nodeChunkMask  = nodeChunkMax - 1
	nodeChunkMin   = 256 // 1 KiB

	// head is the node that links to the first entry at every level.
	// Word 0 stays unused so that index 0 can mean nil.
	head = 1

	byteChunkMin = 4 << 10
	byteChunkMax = 1 << 20
)

// MemTable is a concurrent skiplist of internal-key entries. Construct
// with New.
type MemTable struct {
	nodeDir atomic.Pointer[[][]atomic.Uint32] //boltvet:guardedby atomic
	height  atomic.Int32                      //boltvet:guardedby atomic
	size    atomic.Int64                      //boltvet:guardedby atomic -- approximate bytes
	count   atomic.Int64                      //boltvet:guardedby atomic
	rngSeed atomic.Uint64                     //boltvet:guardedby atomic

	mu       sync.Mutex // serializes arena allocation
	nodeUsed int        //boltvet:guardedby mu -- words taken in the last node chunk
	nodeNext int        //boltvet:guardedby mu -- length of the next node chunk
	ikeys    byteArena  //boltvet:guardedby none -- the directory is atomic; the cursor is used only by alloc, under mu
	values   byteArena  //boltvet:guardedby none -- as ikeys
}

// byteArena cuts byte slices from chunks that never move.
type byteArena struct {
	dir  atomic.Pointer[[][]byte]
	cur  int // index of the chunk slices are cut from
	used int // bytes taken in chunk cur
	next int // size of the next regular chunk
}

// New returns an empty memtable.
func New() *MemTable {
	m := &MemTable{nodeUsed: head + wNext + maxHeight, nodeNext: 2 * nodeChunkMin}
	nodes := [][]atomic.Uint32{make([]atomic.Uint32, nodeChunkMin)}
	m.nodeDir.Store(&nodes)
	m.ikeys.init()
	m.values.init()
	m.height.Store(1)
	m.rngSeed.Store(0x9e3779b97f4a7c15)
	return m
}

// init starts the arena with an empty chunk 0, so the first slice cut
// allocates the first real chunk.
func (a *byteArena) init() {
	dir := [][]byte{nil}
	a.dir.Store(&dir)
	a.next = byteChunkMin
}

// ApproximateSize returns the approximate memory footprint in bytes.
func (m *MemTable) ApproximateSize() int64 { return m.size.Load() }

// Count returns the number of entries.
func (m *MemTable) Count() int64 { return m.count.Load() }

// Empty reports whether the memtable has no entries.
func (m *MemTable) Empty() bool { return m.count.Load() == 0 }

// randomHeight draws a height with P(h) = 4^-h, like LevelDB.
func (m *MemTable) randomHeight() int {
	// xorshift64* on a shared atomic seed; contention is acceptable since
	// inserts do far more work than this.
	for {
		seed := m.rngSeed.Load()
		next := seed
		next ^= next >> 12
		next ^= next << 25
		next ^= next >> 27
		if m.rngSeed.CompareAndSwap(seed, next) {
			rnd := next * 0x2545f4914f6cdd1d
			h := 1
			for h < maxHeight && rnd&3 == 0 {
				h++
				rnd >>= 2
			}
			return h
		}
	}
}

// alloc reserves a node record of height h and arena bytes for a key of
// klen and a value of vlen, and records their places in the node. The
// caller fills the bytes before linking the node, so no reader sees them
// half written.
func (m *MemTable) alloc(h, klen, vlen int) (n uint32, rec []atomic.Uint32, key, value []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	words := wNext + h
	nodes := *m.nodeDir.Load()
	if m.nodeUsed+words > len(nodes[len(nodes)-1]) {
		nodes = publish(&m.nodeDir, make([]atomic.Uint32, m.nodeNext))
		m.nodeUsed = 0
		m.nodeNext = min(2*m.nodeNext, nodeChunkMax)
	}
	last := len(nodes) - 1
	n = uint32(last<<nodeChunkShift | m.nodeUsed)
	rec = nodes[last][m.nodeUsed : m.nodeUsed+words : m.nodeUsed+words]
	m.nodeUsed += words

	key = m.ikeys.alloc(klen, rec[wKeyChunk:wKeyLen+1])
	if vlen > 0 {
		value = m.values.alloc(vlen, rec[wValChunk:wValLen+1])
	}
	return n, rec, key, value
}

// alloc cuts n bytes and stores their chunk, offset and length in loc.
// The caller holds MemTable.mu.
func (a *byteArena) alloc(n int, loc []atomic.Uint32) []byte {
	dir := *a.dir.Load()
	c, off := a.cur, a.used
	switch {
	case off+n <= len(dir[c]):
		a.used += n
	case n > a.next:
		// Too large for a regular chunk: give it its own and keep cutting
		// later slices from the current one.
		dir = publish(&a.dir, make([]byte, n))
		c, off = len(dir)-1, 0
	default:
		dir = publish(&a.dir, make([]byte, a.next))
		c, off = len(dir)-1, 0
		a.cur, a.used = c, n
		a.next = min(2*a.next, byteChunkMax)
	}
	loc[0].Store(uint32(c))
	loc[1].Store(uint32(off))
	loc[2].Store(uint32(n))
	return dir[c][off : off+n : off+n]
}

// publish appends chunk to the directory dir points to and returns the
// grown directory. Readers index only below the length they loaded, so
// appending in place to a shared backing array is safe.
func publish[T any](dir *atomic.Pointer[[]T], chunk T) []T {
	grown := append(*dir.Load(), chunk)
	dir.Store(&grown)
	return grown
}

// Add inserts an entry. Internal keys are unique (sequence numbers never
// repeat), so Add never overwrites.
func (m *MemTable) Add(seq keys.Seq, kind keys.Kind, ukey, value []byte) {
	klen := len(ukey) + keys.TrailerLen
	h := m.randomHeight()
	n, rec, kbuf, vbuf := m.alloc(h, klen, len(value))
	ikey := keys.MakeInternalKey(kbuf[:0], ukey, seq, kind)
	copy(vbuf, value)
	prefix := prefixOf(ukey)
	rec[wPrefixHi].Store(uint32(prefix >> 32))
	rec[wPrefixLo].Store(uint32(prefix))

	for {
		cur := m.height.Load()
		if int32(h) <= cur || m.height.CompareAndSwap(cur, int32(h)) {
			break
		}
	}

	v := m.view()
	var prev, next [maxHeight]uint32
	v.findSplice(ikey, prefix, &prev, &next)
	for level := 0; level < h; level++ {
		for {
			rec[wNext+level].Store(next[level])
			if v.node(prev[level])[wNext+level].CompareAndSwap(next[level], n) {
				break
			}
			// Lost a race at this level: recompute the splice from the
			// previous node forward.
			prev[level], next[level] = v.scan(prev[level], level, ikey, prefix)
		}
	}
	m.size.Add(int64(klen + len(value) + 48))
	m.count.Add(1)
}

// Get looks up ukey at-or-below sequence seq. found=false means the
// memtable holds no visible version; found=true with kind=KindDelete means
// the key was deleted.
func (m *MemTable) Get(ukey []byte, seq keys.Seq) (value []byte, kind keys.Kind, found bool) {
	return m.GetSeek(keys.MakeInternalKey(nil, ukey, seq, keys.KindSeekMax))
}

// GetSeek is Get for callers that already hold an encoded seek key
// (user key + seq + KindSeekMax): the engine's read path probes the
// mutable and immutable memtables and every table with one target, and
// encoding it once per lookup instead of once per probe keeps the hot
// path allocation-free.
func (m *MemTable) GetSeek(target keys.InternalKey) (value []byte, kind keys.Kind, found bool) {
	v := m.view()
	n := v.seekGE(target)
	if n == 0 {
		return nil, 0, false
	}
	rec := v.node(n)
	ikey := v.key(rec)
	if keys.CompareUser(ikey.UserKey(), target.UserKey()) != 0 {
		return nil, 0, false
	}
	return v.value(rec), ikey.Kind(), true
}

// view is a reader's snapshot of the chunk directories.
type view struct {
	m      *MemTable
	nodes  [][]atomic.Uint32
	ikeys  bytesView
	values bytesView
}

type bytesView struct {
	a   *byteArena
	dir [][]byte
}

func (m *MemTable) view() view {
	return view{
		m:      m,
		nodes:  *m.nodeDir.Load(),
		ikeys:  bytesView{&m.ikeys, *m.ikeys.dir.Load()},
		values: bytesView{&m.values, *m.values.dir.Load()},
	}
}

// node returns the words of node n from its first on. A node is reached
// only through a link stored after its chunks were published, so one
// reload of a stale snapshot always finds them.
func (v *view) node(n uint32) []atomic.Uint32 {
	c := int(n >> nodeChunkShift)
	if c >= len(v.nodes) {
		v.nodes = *v.m.nodeDir.Load()
	}
	return v.nodes[c][n&nodeChunkMask:]
}

// slice returns the bytes that the node words rec[at:at+3] (chunk,
// offset, length) place, capped so that an append by the caller cannot
// write over the next entry.
func (b *bytesView) slice(rec []atomic.Uint32, at int) []byte {
	c := int(rec[at].Load())
	if c >= len(b.dir) {
		b.dir = *b.a.dir.Load()
	}
	off := rec[at+1].Load()
	end := off + rec[at+2].Load()
	return b.dir[c][off:end:end]
}

func (v *view) key(rec []atomic.Uint32) keys.InternalKey {
	return v.ikeys.slice(rec, wKeyChunk)
}

// value returns the value of node rec; an empty value is nil.
func (v *view) value(rec []atomic.Uint32) []byte {
	if rec[wValLen].Load() == 0 {
		return nil
	}
	return v.values.slice(rec, wValChunk)
}

// prefixOf returns the first eight bytes of ukey, zero-padded, as a
// big-endian number. Two user keys whose prefixes differ are ordered as
// their prefixes are, so a search step compares the key bytes, through the
// key arena, only when the prefixes are equal.
func prefixOf(ukey []byte) uint64 {
	var b [8]byte
	copy(b[:], ukey)
	return binary.BigEndian.Uint64(b[:])
}

// scan walks level from node p and returns the last node before key and
// the node after it (0 at the end of the level). prefix is
// prefixOf(key.UserKey()).
func (v *view) scan(p uint32, level int, key keys.InternalKey, prefix uint64) (prev, next uint32) {
	rec := v.node(p)
	for {
		n := rec[wNext+level].Load()
		if n == 0 {
			return p, 0
		}
		nrec := v.node(n)
		np := uint64(nrec[wPrefixHi].Load())<<32 | uint64(nrec[wPrefixLo].Load())
		if np > prefix || np == prefix && keys.Compare(v.ikeys.slice(nrec, wKeyChunk), key) >= 0 {
			return p, n
		}
		p, rec = n, nrec
	}
}

// findSplice fills prev/next with the nodes straddling key at every level
// below the current height. The caller raised the height to its node's
// first, so every level it links is filled.
func (v *view) findSplice(key keys.InternalKey, prefix uint64, prev, next *[maxHeight]uint32) {
	p := uint32(head)
	for level := int(v.m.height.Load()) - 1; level >= 0; level-- {
		p, next[level] = v.scan(p, level, key, prefix)
		prev[level] = p
	}
}

// seekGE returns the first node with key >= target, or 0.
func (v *view) seekGE(target keys.InternalKey) uint32 {
	prefix := prefixOf(target.UserKey())
	p := uint32(head)
	var n uint32
	for level := int(v.m.height.Load()) - 1; level >= 0; level-- {
		p, n = v.scan(p, level, target, prefix)
	}
	return n
}

// NewIter returns an iterator over the memtable. The iterator observes
// entries inserted after its creation (standard LSM semantics; snapshot
// isolation comes from sequence-number filtering above).
func (m *MemTable) NewIter() iterator.Iterator {
	return &memIter{v: m.view()}
}

type memIter struct {
	v   view
	n   uint32 // 0 when not positioned
	rec []atomic.Uint32
	key keys.InternalKey
}

var _ iterator.Iterator = (*memIter)(nil)

func (it *memIter) at(n uint32) bool {
	it.n = n
	if n == 0 {
		it.rec, it.key = nil, nil
		return false
	}
	it.rec = it.v.node(n)
	it.key = it.v.key(it.rec)
	return true
}

func (it *memIter) First() bool {
	return it.at(it.v.node(head)[wNext].Load())
}

func (it *memIter) Seek(target keys.InternalKey) bool {
	return it.at(it.v.seekGE(target))
}

func (it *memIter) Next() bool {
	if it.n == 0 {
		return false
	}
	return it.at(it.rec[wNext].Load())
}

func (it *memIter) Valid() bool { return it.n != 0 }

func (it *memIter) Key() keys.InternalKey { return it.key }

func (it *memIter) Value() []byte {
	if it.n == 0 {
		return nil
	}
	return it.v.value(it.rec)
}

func (it *memIter) Err() error { return nil }

func (it *memIter) Close() error {
	it.at(0)
	return nil
}
