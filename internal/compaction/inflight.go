package compaction

import (
	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/manifest"
)

// Reservation pins the footprint of one executing compaction: its input
// level, output level, the user-key span its outputs (rewritten or
// promoted) may occupy at the output level, and the set of input table
// numbers. While a reservation is held, the picker refuses any compaction
// that would share an input table with it or write an overlapping range
// into the same output level.
type Reservation struct {
	level       int //boltvet:guardedby none -- immutable after Reserve
	outputLevel int //boltvet:guardedby none -- immutable after Reserve
	// smallest/largest span Inputs, NextInputs, AND Settled: promoted
	// tables land at the output level without rewrite, so their range must
	// be protected against concurrent outputs just like rewritten data.
	smallest, largest []byte   //boltvet:guardedby none -- immutable after Reserve
	files             []uint64 //boltvet:guardedby none -- immutable after Reserve
}

// InFlight is the registry of reservations for currently executing
// compactions. It is NOT self-locking: the engine calls every method under
// its own mutex, which already serializes picking, reserving, and
// releasing. A nil *InFlight is valid and always empty, so tests can drive
// the picker without one.
type InFlight struct {
	res    []*Reservation //boltvet:guardedby none -- externally serialized under the engine mutex (see type doc)
	byFile map[uint64]int //boltvet:guardedby none -- reference counts, across all reservations; engine-mutex serialized
}

// NewInFlight returns an empty registry.
func NewInFlight() *InFlight {
	return &InFlight{byFile: make(map[uint64]int)}
}

// Len returns the number of held reservations.
func (in *InFlight) Len() int {
	if in == nil {
		return 0
	}
	return len(in.res)
}

// FileReserved reports whether table num is an input of any held
// reservation.
func (in *InFlight) FileReserved(num uint64) bool {
	if in == nil {
		return false
	}
	return in.byFile[num] > 0
}

// Reserve registers c's footprint and returns the handle to Release when
// the compaction commits or fails. The caller must have established that
// Conflicts(c) is false.
func (in *InFlight) Reserve(c *Compaction) *Reservation {
	r := &Reservation{level: c.Level, outputLevel: c.OutputLevel}
	r.smallest, r.largest = reservedSpan(c)
	eachInputFile(c, func(num uint64) {
		r.files = append(r.files, num)
		in.byFile[num]++
	})
	in.res = append(in.res, r)
	return r
}

// Release drops r from the registry. Releasing nil is a no-op.
func (in *InFlight) Release(r *Reservation) {
	if in == nil || r == nil {
		return
	}
	for i, held := range in.res {
		if held == r {
			in.res = append(in.res[:i], in.res[i+1:]...)
			for _, num := range r.files {
				if in.byFile[num]--; in.byFile[num] <= 0 {
					delete(in.byFile, num)
				}
			}
			return
		}
	}
}

// Conflicts reports whether c may not run concurrently with the held
// reservations. Three rules, each protecting one invariant:
//
//  1. Shared input table: two compactions consuming the same table would
//     both delete it (double-free) and one would read data the other is
//     rewriting. NextInputs holds every output-level table a compaction
//     reads, so cross-level chains (an L0->L1 racing an L1->L2 over the
//     same L1 table) reduce to this rule. A settled pick leaves out the
//     output-level tables in its span that overlap no victim: it neither
//     reads nor writes them, so a concurrent compaction out of the output
//     level may consume one, and rule 3's span still fences the range
//     against other writers to the output level.
//  2. L0 exclusivity: level-0 tables mutually overlap, so any two
//     compactions out of L0 share key ranges by construction.
//  3. Output-range overlap: two compactions writing overlapping user-key
//     ranges into the same level would break the level's sorted-table
//     invariant the moment both commit.
func (in *InFlight) Conflicts(c *Compaction) bool {
	if in == nil || len(in.res) == 0 {
		return false
	}
	conflict := false
	eachInputFile(c, func(num uint64) {
		if in.byFile[num] > 0 {
			conflict = true
		}
	})
	if conflict {
		return true
	}
	smallest, largest := reservedSpan(c)
	for _, r := range in.res {
		if c.Level == 0 && r.level == 0 {
			return true
		}
		if r.outputLevel == c.OutputLevel && spansOverlap(smallest, largest, r.smallest, r.largest) {
			return true
		}
	}
	return false
}

// reservedSpan is the user-key range a compaction's outputs may occupy at
// the output level: the span of everything it consumes or promotes.
func reservedSpan(c *Compaction) (smallest, largest []byte) {
	for _, files := range [][]*manifest.FileMeta{c.Inputs, c.NextInputs, c.Settled} {
		for _, f := range files {
			if smallest == nil || keys.CompareUser(f.Smallest.UserKey(), smallest) < 0 {
				smallest = f.Smallest.UserKey()
			}
			if largest == nil || keys.CompareUser(f.Largest.UserKey(), largest) > 0 {
				largest = f.Largest.UserKey()
			}
		}
	}
	return smallest, largest
}

// eachInputFile visits the table number of every file c consumes (inputs,
// next-level inputs, and settled promotions alike).
func eachInputFile(c *Compaction, fn func(num uint64)) {
	for _, files := range [][]*manifest.FileMeta{c.Inputs, c.NextInputs, c.Settled} {
		for _, f := range files {
			fn(f.Num)
		}
	}
}

// spansOverlap reports whether the inclusive user-key ranges [as, al] and
// [bs, bl] intersect. A nil span (empty compaction side) never overlaps.
func spansOverlap(as, al, bs, bl []byte) bool {
	if as == nil || bs == nil {
		return false
	}
	return keys.CompareUser(al, bs) >= 0 && keys.CompareUser(bl, as) >= 0
}
