package lockorder

import "sync"

// L pins the *Locked entry seed: a *Locked method is walked with its
// receiver's annotated guards already held, so acquiring one again —
// directly or through a callee — is a self-deadlock.
type L struct {
	mu    sync.Mutex
	count int //boltvet:guardedby mu
}

func (l *L) selfDeadlockLocked() {
	l.mu.Lock() // want `selfDeadlockLocked acquires lockorder\.L\.mu while already holding it \(self-deadlock\)`
	l.count++
	l.mu.Unlock()
}

func (l *L) callsLockerLocked() {
	l.bump() // want `callsLockerLocked acquires lockorder\.L\.mu while already holding it via bump \(self-deadlock\)`
}

func (l *L) bump() {
	l.mu.Lock()
	l.count++
	l.mu.Unlock()
}

// relockLocked is the negative: it releases mu before taking it again.
func (l *L) relockLocked() {
	l.mu.Unlock()
	l.mu.Lock()
	l.count++
}
