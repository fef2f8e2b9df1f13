// Package iterator defines the forward iterator contract shared by
// memtables, SSTables, and the engine's merged views, plus the merging
// iterator that combines multiple sorted sources.
package iterator

import (
	"github.com/bolt-lsm/bolt/internal/keys"
)

// Iterator walks a sorted sequence of internal key/value entries. All
// iterators in this codebase are forward-only (the evaluation workloads
// only scan forward). The usual pattern:
//
//	for ok := it.First(); ok; ok = it.Next() { ... }
//	if err := it.Err(); err != nil { ... }
//
// Key and Value return slices valid only until the next positioning call.
//
//boltvet:mustclose
type Iterator interface {
	// First positions at the first entry and reports validity.
	First() bool
	// Seek positions at the first entry with internal key >= target.
	Seek(target keys.InternalKey) bool
	// Next advances; reports validity.
	Next() bool
	// Valid reports whether the iterator is positioned at an entry.
	Valid() bool
	// Key returns the current internal key.
	Key() keys.InternalKey
	// Value returns the current value.
	Value() []byte
	// Err returns the first error encountered, if any.
	Err() error
	// Close releases resources. The iterator is unusable afterwards.
	Close() error
}

// Empty is an iterator over nothing; Err returns the provided error, which
// lets table-open failures propagate through merged iteration.
type Empty struct{ ErrValue error }

var _ Iterator = (*Empty)(nil)

// First implements Iterator.
func (e *Empty) First() bool { return false }

// Seek implements Iterator.
func (e *Empty) Seek(keys.InternalKey) bool { return false }

// Next implements Iterator.
func (e *Empty) Next() bool { return false }

// Valid implements Iterator.
func (e *Empty) Valid() bool { return false }

// Key implements Iterator.
func (e *Empty) Key() keys.InternalKey { return nil }

// Value implements Iterator.
func (e *Empty) Value() []byte { return nil }

// Err implements Iterator.
func (e *Empty) Err() error { return e.ErrValue }

// Close implements Iterator.
func (e *Empty) Close() error { return nil }

// Merging merges entries from several iterators into one sorted stream
// using a loser-free binary heap keyed on the current internal key. Ties
// (identical internal keys cannot occur between sources since sequence
// numbers are unique) are broken by source index for determinism.
type Merging struct {
	sources []Iterator
	heap    []mergeItem // heap-ordered by current key
	err     error
}

// mergeItem is one positioned source. The key is fetched once per move of
// that source: a sift compares keys many times, and asking the source each
// time costs an interface call (often through a wrapper) per comparison.
type mergeItem struct {
	src int // index into sources
	key keys.InternalKey
}

var _ Iterator = (*Merging)(nil)

// NewMerging returns a merging iterator over the given sources. The
// merging iterator owns the sources and closes them on Close.
func NewMerging(sources ...Iterator) *Merging {
	m := new(Merging)
	m.Init(sources)
	return m
}

// Init points a zero Merging at sources, which it owns from here on, so an
// owner can embed one instead of allocating it. The heap is sized once.
func (m *Merging) Init(sources []Iterator) {
	m.sources = sources
	m.heap = make([]mergeItem, 0, len(sources))
}

func (m *Merging) less(a, b mergeItem) bool {
	c := keys.Compare(a.key, b.key)
	if c != 0 {
		return c < 0
	}
	return a.src < b.src
}

func (m *Merging) heapInit() {
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.heapDown(i)
	}
}

func (m *Merging) heapDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(m.heap) && m.less(m.heap[l], m.heap[smallest]) {
			smallest = l
		}
		if r < len(m.heap) && m.less(m.heap[r], m.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		m.heap[i], m.heap[smallest] = m.heap[smallest], m.heap[i]
		i = smallest
	}
}

func (m *Merging) rebuild(position func(Iterator) bool) bool {
	m.heap = m.heap[:0]
	for i, src := range m.sources {
		if position(src) {
			m.heap = append(m.heap, mergeItem{i, src.Key()})
		} else if err := src.Err(); err != nil && m.err == nil {
			m.err = err
		}
	}
	if m.err != nil {
		m.heap = m.heap[:0]
		return false
	}
	m.heapInit()
	return len(m.heap) > 0
}

// First implements Iterator.
func (m *Merging) First() bool {
	m.err = nil
	return m.rebuild(func(it Iterator) bool { return it.First() })
}

// Seek implements Iterator.
func (m *Merging) Seek(target keys.InternalKey) bool {
	m.err = nil
	return m.rebuild(func(it Iterator) bool { return it.Seek(target) })
}

// Next implements Iterator.
func (m *Merging) Next() bool {
	if !m.Valid() {
		return false
	}
	top := m.sources[m.heap[0].src]
	if top.Next() {
		m.heap[0].key = top.Key()
		m.heapDown(0)
		return true
	}
	if err := top.Err(); err != nil {
		m.err = err
		m.heap = m.heap[:0]
		return false
	}
	// Source exhausted: remove from heap.
	last := len(m.heap) - 1
	m.heap[0] = m.heap[last]
	m.heap = m.heap[:last]
	if last > 0 {
		m.heapDown(0)
	}
	return len(m.heap) > 0
}

// Valid implements Iterator.
func (m *Merging) Valid() bool { return m.err == nil && len(m.heap) > 0 }

// Key implements Iterator.
func (m *Merging) Key() keys.InternalKey {
	if !m.Valid() {
		return nil
	}
	return m.heap[0].key
}

// Value implements Iterator.
func (m *Merging) Value() []byte {
	if !m.Valid() {
		return nil
	}
	return m.sources[m.heap[0].src].Value()
}

// Err implements Iterator.
func (m *Merging) Err() error { return m.err }

// Close implements Iterator; it closes all sources and returns the first
// close error.
func (m *Merging) Close() error {
	var first error
	for _, src := range m.sources {
		if err := src.Close(); err != nil && first == nil {
			first = err
		}
	}
	m.sources = nil
	m.heap = nil
	return first
}
