// Package condcheck is the boltvet fixture for the sync.Cond protocol
// analyzer: Wait only inside a predicate-rechecking loop (one helper
// level allowed when every call site loops), Wait with the bound mutex
// held and no second acquired mutex, and a Signal/Broadcast positioned
// after every waited-predicate mutation (here or in every caller).
package condcheck

import "sync"

// q is the drain-loop shape: cond bound to mu via sync.NewCond, ready
// as the waited predicate, mu2 as the second-lock hazard. The annotation
// is what seeds mu as held on entry to stallLocked.
type q struct {
	mu    sync.Mutex
	mu2   sync.Mutex
	cond  *sync.Cond
	ready bool //boltvet:guardedby mu
}

// newQ pins the freshness exemption: mutating the predicate on a local
// nobody shares yet needs no signal.
func newQ() *q {
	c := &q{}
	c.cond = sync.NewCond(&c.mu)
	c.ready = false
	return c
}

// await is the correct waiter: loop, predicate recheck, mutex held.
func (s *q) await() {
	s.mu.Lock()
	for !s.ready {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// put is the correct mutator: Broadcast after the predicate change.
func (s *q) put() {
	s.mu.Lock()
	s.ready = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// putBad mutates the waited predicate and wakes nobody.
func (s *q) putBad() {
	s.mu.Lock()
	s.ready = true // want `putBad mutates condcheck\.q\.ready, rechecked by the Wait loop at .*, with no Signal/Broadcast after it \(here or in every caller\); waiters can miss the change and stall`
	s.mu.Unlock()
}

// waitNoLoop Waits at function top level and has no call sites, so the
// finding lands on the Wait itself.
func (s *q) waitNoLoop() {
	s.mu.Lock()
	s.cond.Wait() // want `Wait on condcheck\.q\.cond outside a for loop; a wakeup is a hint, recheck the predicate in a loop`
	s.mu.Unlock()
}

// stallLocked is the one-level helper relaxation: its bare Wait is fine
// exactly when every call site loops.
func (s *q) stallLocked() {
	s.cond.Wait()
}

func (s *q) midLoop() {
	s.mu.Lock()
	for !s.ready {
		s.stallLocked()
	}
	s.mu.Unlock()
}

func (s *q) midNoLoop() {
	s.mu.Lock()
	s.stallLocked() // want `midNoLoop calls stallLocked, which Waits on condcheck\.q\.cond, from outside a loop; the predicate is rechecked only when the call site loops`
	s.mu.Unlock()
}

// waitNoLock loops correctly but never acquires the cond's mutex.
func (s *q) waitNoLock() {
	for !s.ready {
		s.cond.Wait() // want `waitNoLock Waits on condcheck\.q\.cond without holding condcheck\.q\.mu, the cond's mutex; Wait's internal unlock panics or races`
	}
}

// waitDouble holds a second acquired mutex across the sleep.
func (s *q) waitDouble() {
	s.mu.Lock()
	s.mu2.Lock()
	for !s.ready {
		s.cond.Wait() // want `waitDouble Waits on condcheck\.q\.cond while holding condcheck\.q\.mu2; Wait releases only the cond's mutex, so condcheck\.q\.mu2 stays held across the sleep \(deadlock hazard\)`
	}
	s.mu2.Unlock()
	s.mu.Unlock()
}

// litWait Waits inside a function literal with no loop around it.
func (s *q) litWait() {
	f := func() {
		s.cond.Wait() // want `Wait on condcheck\.q\.cond outside a for loop; a wakeup is a hint, recheck the predicate in a loop`
	}
	f()
}

// flip mutates with no signal of its own; flipAndSignal, its only call
// site, broadcasts after the call, so the one-level caller discharge
// applies.
func (s *q) flip() {
	s.ready = true
}

func (s *q) flipAndSignal() {
	s.mu.Lock()
	s.flip()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// wake/wake2 carry the broadcast one and two call-graph hops away: the
// transitive signal summaries discharge both mutators below.
func (s *q) wake()  { s.cond.Broadcast() }
func (s *q) wake2() { s.wake() }

func (s *q) mutateThenCall() {
	s.mu.Lock()
	s.ready = true
	s.wake()
	s.mu.Unlock()
}

func (s *q) mutateThenCall2() {
	s.mu.Lock()
	s.ready = true
	s.wake2()
	s.mu.Unlock()
}

// mutateSuppressed pins the reasoned-ignore path.
func (s *q) mutateSuppressed() {
	s.mu.Lock()
	s.ready = false //boltvet:ignore condcheck -- fixture: shutdown path, the waiters are already gone
	s.mu.Unlock()
}
