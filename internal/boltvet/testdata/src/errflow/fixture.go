// Package errflow is the fixture corpus for the barrier-error taint
// analyzer: errors born at Sync must reach a sink through any chain of
// helpers, copies, and wraps.
package errflow

import "fmt"

type file struct{}

func (file) Sync() error { return nil }

var f file

// barrier is a 1-hop helper: its error is born at a Sync barrier.
func barrier() error {
	return f.Sync()
}

// layer2 makes the chain two hops deep.
func layer2() error {
	return barrier()
}

// --- interprocedural positives: the helper's name does not say "barrier" ---

func dropStmt() {
	layer2() // want `result of layer2 is discarded, but it carries a durability-barrier error \(layer2 -> barrier -> Sync\)`
}

func dropBlank() {
	_ = layer2() // want `error from layer2 is discarded via _, but it carries a durability-barrier error \(layer2 -> barrier -> Sync\)`
}

func dropDefer() {
	defer layer2() // want `error from deferred layer2 is discarded; it carries a durability-barrier error \(layer2 -> barrier -> Sync\)`
}

func dropDead() {
	err := layer2() // want `error from layer2 is captured but never handled; the barrier error \(layer2 -> barrier -> Sync\) dies in dropDead`
	_ = err
}

// --- direct positive: wrap-chain death ---

func wrapDeath() {
	err := f.Sync() // want `error from Sync is copied or wrapped but never handled; the barrier error dies in wrapDeath`
	wrapped := fmt.Errorf("flush: %w", err)
	_ = wrapped
}

// --- negatives: the taint reaches a sink ---

func returned() error {
	return layer2()
}

func handled() {
	if err := layer2(); err != nil {
		panic(err)
	}
}

type sink struct{ bgErr error }

func recorded(s *sink) {
	err := layer2()
	s.bgErr = err // stored into a field: the error is recorded
}

func wrappedAndReturned() error {
	err := f.Sync()
	if err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	return nil
}

// --- suppressed negative: reviewed and waived with a reason ---

func waived() {
	_ = layer2() //boltvet:ignore errflow -- fixture: best-effort path, suppressed on purpose
}
