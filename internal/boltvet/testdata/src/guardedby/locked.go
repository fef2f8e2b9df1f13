package guardedby

import (
	"sync"
	"sync/atomic"
)

// ledger is the *Locked-convention section: two mutexes, each guarding
// its own fields, and the unlock-then-relock negative.
type ledger struct {
	cap int //boltvet:guardedby none -- set once before the ledger is shared

	mu    sync.Mutex
	count int    //boltvet:guardedby mu
	name  string //boltvet:guardedby mu

	gets atomic.Int64 //boltvet:guardedby atomic

	// statsMu serializes stats writers; it guards its own field.
	statsMu sync.Mutex
	stats   int //boltvet:guardedby statsMu
}

func (s *ledger) Good() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count++
}

func (s *ledger) Bad() {
	s.count++ // want `Bad accesses ledger\.count \(//boltvet:guardedby mu\) without holding mu`
}

func (s *ledger) Unguarded() int {
	s.gets.Add(1)
	return s.cap // ok: annotated none
}

func (s *ledger) incLocked() {
	s.count++ // ok: the suffix declares the caller holds mu
}

// dropAndRelockLocked touches state only before it releases mu:
// unlock-then-relock around I/O is the house pattern.
func (s *ledger) dropAndRelockLocked() {
	s.count++
	s.name = "io"
	s.mu.Unlock()
	defer s.mu.Lock()
}

func (s *ledger) statsBad() int {
	return s.stats // want `statsBad accesses ledger\.stats \(//boltvet:guardedby statsMu\) without holding statsMu`
}

func (s *ledger) statsGood() {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	s.stats++
}
