package errflow

// The direct-site section: discards at the barrier call itself. deadAssign
// declares an unused variable on purpose, so this package does not
// compile; the loader tolerates soft type errors, and fixture packages
// under testdata are never built.

type handle struct{}

func (handle) Sync() error    { return nil }
func (handle) SyncDir() error { return nil }
func (handle) Close() error   { return nil }

// closer returns no error: bare calls to it must NOT be flagged.
type closer struct{}

func (closer) Close() {}

type vset struct{}

func (vset) LogAndApply(edit int) error    { return nil }
func (vset) CommitPrepared(edit int) error { return nil }

// WriteFile mimics vfs.WriteFile (write + sync + dir sync): a barrier.
func WriteFile(name string, data []byte) error { return nil }

func bareCalls(f handle, c closer, vs vset) {
	f.Sync()                  // want `result of f\.Sync is discarded, but it is a durability barrier`
	f.SyncDir()               // want `result of f\.SyncDir is discarded`
	f.Close()                 // want `result of f\.Close is discarded; handle the error, or mark a best-effort close explicit`
	vs.LogAndApply(1)         // want `result of vs\.LogAndApply is discarded`
	vs.CommitPrepared(1)      // want `result of vs\.CommitPrepared is discarded`
	WriteFile("CURRENT", nil) // want `result of WriteFile is discarded`
	_ = WriteFile("x", nil)   // want `error from WriteFile is discarded via _`
	c.Close()                 // ok: returns no error
}

func explicitDiscard(f handle, vs vset) {
	_ = f.Sync()          // want `error from f\.Sync is discarded via _`
	_ = vs.LogAndApply(1) // want `error from vs\.LogAndApply is discarded via _`
	_ = f.Close()         // ok: a deliberate, visible best-effort close
}

func deferred(f handle) error {
	defer f.Sync()  // want `error from deferred f\.Sync is discarded`
	defer f.Close() // ok: deferred close on read paths is idiomatic
	return nil
}

func spawned(f handle) {
	go f.Sync() // want `error from f\.Sync spawned in a goroutine is discarded`
}

func deadAssign(f handle) error {
	err := f.Sync() // want `error from f\.Sync is assigned but never used; the barrier error dies in deadAssign`
	return nil
}

// inLiteral: a function literal is traced on its own; its return is not
// the enclosing function's.
func inLiteral(f handle) {
	go func() {
		f.Sync() // want `result of f\.Sync is discarded`
	}()
	run(func() error {
		err := f.Sync()
		return err
	})
}

func run(fn func() error) { _ = fn() }

// capturedByLiteral: the error escapes into a closure that handles it.
func capturedByLiteral(f handle, errc chan error) {
	err := f.Sync()
	go func() { errc <- err }()
}

func directHandled(f handle, vs vset) error {
	if err := f.Sync(); err != nil {
		return err
	}
	err := vs.LogAndApply(1)
	return err
}

// closeReturned: a returned Close error is handled here, and it does not
// make closeReturned barrier-born, so its callers may drop it.
func closeReturned(f handle) error {
	return f.Close()
}

func dropsClose(f handle) {
	_ = closeReturned(f)
}
