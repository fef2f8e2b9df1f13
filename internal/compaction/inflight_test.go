package compaction

import (
	"testing"

	"github.com/bolt-lsm/bolt/internal/manifest"
)

// res reserves a hand-built compaction and returns the registry.
func res(c *Compaction) *InFlight {
	in := NewInFlight()
	in.Reserve(c)
	return in
}

func TestInFlightSharedInputExclusion(t *testing.T) {
	shared := meta(10, 2<<20, "f", "h")
	in := res(&Compaction{
		Level: 1, OutputLevel: 2,
		Inputs:     []*manifest.FileMeta{meta(1, 2<<20, "a", "c")},
		NextInputs: []*manifest.FileMeta{shared},
	})

	// A candidate consuming the same table (here as its own input, i.e. an
	// L2->L3 racing the L1->L2 that is rewriting the table) must conflict.
	c := &Compaction{
		Level: 2, OutputLevel: 3,
		Inputs: []*manifest.FileMeta{shared},
	}
	if !in.Conflicts(c) {
		t.Fatal("shared input table not detected as conflict")
	}
	// A different table with keys beyond the reserved span is fine.
	c2 := &Compaction{
		Level: 2, OutputLevel: 3,
		Inputs: []*manifest.FileMeta{meta(11, 2<<20, "x", "z")},
	}
	if in.Conflicts(c2) {
		t.Fatalf("disjoint compaction flagged as conflict")
	}
}

func TestInFlightOverlappingOutputRangeExclusion(t *testing.T) {
	in := res(&Compaction{
		Level: 1, OutputLevel: 2,
		Inputs: []*manifest.FileMeta{meta(1, 2<<20, "d", "k")},
	})

	overlapping := &Compaction{
		Level: 1, OutputLevel: 2,
		Inputs: []*manifest.FileMeta{meta(2, 2<<20, "h", "p")},
	}
	if !in.Conflicts(overlapping) {
		t.Fatal("overlapping output ranges in the same level not detected")
	}
	disjoint := &Compaction{
		Level: 1, OutputLevel: 2,
		Inputs: []*manifest.FileMeta{meta(3, 2<<20, "p", "z")},
	}
	if in.Conflicts(disjoint) {
		t.Fatal("disjoint output ranges flagged as conflict")
	}
	// Same key range into a DIFFERENT output level is no conflict either.
	otherLevel := &Compaction{
		Level: 2, OutputLevel: 3,
		Inputs: []*manifest.FileMeta{meta(4, 2<<20, "d", "k")},
	}
	if in.Conflicts(otherLevel) {
		t.Fatal("different output level flagged as range conflict")
	}
}

func TestInFlightSettledSpanIsReserved(t *testing.T) {
	// A settled promotion moves tables to the output level without
	// rewrite; its range must be protected like rewritten output.
	in := res(&Compaction{
		Level: 1, OutputLevel: 2,
		Settled: []*manifest.FileMeta{meta(1, 2<<20, "m", "q")},
	})
	c := &Compaction{
		Level: 1, OutputLevel: 2,
		Inputs: []*manifest.FileMeta{meta(2, 2<<20, "p", "t")},
	}
	if !in.Conflicts(c) {
		t.Fatal("settled promotion span not reserved")
	}
}

func TestInFlightL0Exclusivity(t *testing.T) {
	in := res(&Compaction{
		Level: 0, OutputLevel: 1,
		Inputs: []*manifest.FileMeta{meta(1, 1<<20, "a", "c")},
	})
	// Even an L0 compaction over entirely different keys conflicts: L0
	// tables mutually overlap by construction.
	c := &Compaction{
		Level: 0, OutputLevel: 1,
		Inputs: []*manifest.FileMeta{meta(2, 1<<20, "x", "z")},
	}
	if !in.Conflicts(c) {
		t.Fatal("two L0 compactions allowed to run concurrently")
	}
}

func TestInFlightRelease(t *testing.T) {
	in := NewInFlight()
	c := &Compaction{
		Level: 1, OutputLevel: 2,
		Inputs: []*manifest.FileMeta{meta(1, 2<<20, "a", "c")},
	}
	r := in.Reserve(c)
	if in.Len() != 1 || !in.FileReserved(1) {
		t.Fatalf("reservation not registered: len=%d", in.Len())
	}
	if !in.Conflicts(c) {
		t.Fatal("reserved compaction does not conflict with itself")
	}
	in.Release(r)
	if in.Len() != 0 || in.FileReserved(1) {
		t.Fatalf("release did not clear registry: len=%d", in.Len())
	}
	if in.Conflicts(c) {
		t.Fatal("conflict reported against empty registry")
	}
	in.Release(r) // double release is a no-op
	in.Release(nil)
}

func TestInFlightNilIsEmpty(t *testing.T) {
	var in *InFlight
	c := &Compaction{Level: 0, OutputLevel: 1, Inputs: []*manifest.FileMeta{meta(1, 1, "a", "b")}}
	if in.Conflicts(c) || in.Len() != 0 || in.FileReserved(1) {
		t.Fatal("nil registry must behave as empty")
	}
	in.Release(nil)
}

// TestPickSkipsReservedLevel is the scheduler-facing contract: when the
// top-scoring level's candidates are all reserved, Pick yields the
// next-best level instead of nil.
func TestPickSkipsReservedLevel(t *testing.T) {
	p := &Picker{Opts: defaultOpts()}
	var lv [manifest.NumLevels][]*manifest.FileMeta
	// L1 well over its 10 MB limit with a single huge table; L2 over its
	// 100 MB limit, keys disjoint from L1's span.
	l1 := meta(1, 40<<20, "a", "c")
	lv[1] = []*manifest.FileMeta{l1}
	lv[2] = []*manifest.FileMeta{
		meta(2, 60<<20, "m", "o"),
		meta(3, 60<<20, "p", "r"),
	}

	// Unreserved: the higher-scoring L1 wins.
	v := manifest.NewVersion(lv)
	if c := p.Pick(v, Env{}); c == nil || c.Level != 1 {
		t.Fatalf("expected L1 pick, got %+v", c)
	}

	in := NewInFlight()
	in.Reserve(&Compaction{Level: 1, OutputLevel: 2, Inputs: []*manifest.FileMeta{l1}})
	c := p.Pick(v, Env{InFlight: in})
	if c == nil {
		t.Fatal("fully-reserved top level produced nil pick instead of next-best level")
	}
	if c.Level != 2 {
		t.Fatalf("expected fallback to L2, got L%d", c.Level)
	}
	if in.Conflicts(c) {
		t.Fatal("fallback pick conflicts with in-flight work")
	}
}

// TestPickSeekCandidate folds the former engine-side seek special case
// into the picker: a pending seek victim is preferred even below the size
// thresholds, validated against the version, and conflict-checked.
func TestPickSeekCandidate(t *testing.T) {
	p := &Picker{Opts: defaultOpts()}
	var lv [manifest.NumLevels][]*manifest.FileMeta
	f := meta(1, 1<<20, "d", "f")
	lv[1] = []*manifest.FileMeta{f} // far below the size threshold

	v := manifest.NewVersion(lv)
	c := p.Pick(v, Env{SeekFile: f, SeekLevel: 1})
	if c == nil || c.Reason != ReasonSeek || len(c.Inputs) != 1 || c.Inputs[0] != f {
		t.Fatalf("seek candidate not picked: %+v", c)
	}

	// A stale candidate (not in the version anymore) is ignored.
	if c := p.Pick(v, Env{SeekFile: meta(9, 1<<20, "x", "z"), SeekLevel: 1}); c != nil {
		t.Fatalf("stale seek candidate picked: %+v", c)
	}

	// A conflicting candidate is ignored while the conflict lasts.
	in := NewInFlight()
	in.Reserve(&Compaction{Level: 1, OutputLevel: 2, Inputs: []*manifest.FileMeta{f}})
	if c := p.Pick(v, Env{SeekFile: f, SeekLevel: 1, InFlight: in}); c != nil {
		t.Fatalf("conflicting seek candidate picked: %+v", c)
	}
}
