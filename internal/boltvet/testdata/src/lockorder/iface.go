package lockorder

import "sync"

// Syncer pins interface fan-out: a call through it reaches only receivers
// that declare every Syncer method, so writer.Seal's w.f.Sync under w.mu
// does not resolve to writer.Sync, which takes w.mu (a self-deadlock that
// is not there).
type Syncer interface {
	Sync() error
	Size() int64
}

type diskFile struct{}

func (diskFile) Sync() error { return nil }
func (diskFile) Size() int64 { return 0 }

// writer has a Sync of the same shape but no Size: not a Syncer.
type writer struct {
	mu sync.Mutex
	f  Syncer
}

func (w *writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Sync()
}

func (w *writer) Seal() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Sync()
}

// wrapped lacks a Size of its own, but it embeds a field, and promotion
// may supply one: it stays a candidate.
type wrapped struct {
	diskFile
}

func (wrapped) Sync() error { return nil }
