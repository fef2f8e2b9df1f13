// Package guardedby is the boltvet fixture for the field-guard
// annotation vocabulary (//boltvet:guardedby mu|atomic|none) and its
// summary-backed verification, including obligations propagated through
// *Locked call chains.
package guardedby

import (
	"sync"
	"sync/atomic"
)

type store struct {
	// mu serializes the annotated state.
	mu sync.Mutex

	count int    //boltvet:guardedby mu
	name  string //boltvet:guardedby mu

	gen   atomic.Int64    //boltvet:guardedby atomic
	perOp [2]atomic.Int64 //boltvet:guardedby atomic -- each element is an atomic.Int64

	//boltvet:guardedby atomic
	hits int64 // want `guardedby atomic on store\.hits, whose type int64 is not from sync/atomic`

	capacity int //boltvet:guardedby none -- set once before the store is shared

	missing int // want `struct store has //boltvet:guardedby annotations but field "missing" has none`

	//boltvet:guardedby statsMu
	stats int // want `names "statsMu", which is not a sync.Mutex/RWMutex field of store`

	//boltvet:guardedby none
	scratch int // want `//boltvet:guardedby none on store.scratch requires a reason`
}

// New initializes guarded fields lock-free: the local is freshly
// constructed and unshared.
func New(capacity int) *store {
	s := &store{capacity: capacity}
	s.count = 1
	s.name = "fresh"
	return s
}

func (s *store) Good() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count++
}

func (s *store) Bad() {
	s.count++ // want `Bad accesses store\.count \(//boltvet:guardedby mu\) without holding mu`
}

func (s *store) Window() {
	s.mu.Lock()
	s.count++
	s.mu.Unlock()
	s.name = "late" // want `Window accesses store\.name .* after releasing mu \(unlock-then-relock window\)`
}

// incLocked's access becomes an entry obligation checked at every caller.
func (s *store) incLocked() {
	s.count++
}

// bumpLocked chains the obligation one hop further up.
func (s *store) bumpLocked() {
	s.incLocked()
}

func (s *store) CallerGood() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bumpLocked()
}

func (s *store) CallerBad() {
	s.bumpLocked() // want `CallerBad calls bumpLocked -> incLocked, which accesses store\.count \(//boltvet:guardedby mu\), without holding mu`
}

// Suppressed is the negative: a reasoned directive silences the finding.
func (s *store) Suppressed() {
	s.count++ //boltvet:ignore guardedby -- fixture: single-threaded setup path
}

func (s *store) Capacity() int {
	return s.capacity // ok: annotated none with a reason
}
