// Package manifest implements the versioned metadata of the LSM-tree: file
// metadata (including BoLT's logical-SSTable addressing), version edits,
// the MANIFEST log, and the version set with its recovery path.
//
// The MANIFEST is the commit mark of every flush and compaction: new table
// bytes are fsynced first, then a single version edit — naming the added
// and deleted (logical) SSTables — is appended to the MANIFEST and fsynced.
// A crash between the two barriers leaves orphan table bytes that are
// garbage-collected at open; a crash before the first barrier loses only
// uncommitted work. BoLT's contribution is that the *first* barrier covers
// one compaction file holding many logical SSTables instead of one barrier
// per SSTable.
package manifest

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/bolt-lsm/bolt/internal/keys"
)

// NumLevels is the number of on-disk levels.
const NumLevels = 7

// FileMeta describes one (logical) SSTable. In legacy engines PhysNum ==
// Num and Offset == 0: the table owns its whole physical file. In BoLT
// several FileMetas share a PhysNum, each at its own Offset — these are the
// logical SSTables.
type FileMeta struct {
	// Num is the table's unique number (also the block-cache key).
	Num uint64
	// PhysNum is the physical file the table lives in.
	PhysNum uint64
	// Offset is the table's base offset within the physical file.
	Offset int64
	// Size is the table's length in bytes.
	Size int64
	// Smallest and Largest bound the table's internal keys.
	Smallest, Largest keys.InternalKey
	// Guard is the PebblesDB guard key owning this table (fragmented-level
	// profiles only; nil otherwise).
	Guard []byte

	// AllowedSeeks drives LevelDB's seek compaction: it starts proportional
	// to the file size and each read that had to consult this table without
	// finding its key decrements it; at zero the table becomes a compaction
	// candidate.
	AllowedSeeks atomic.Int64
}

// OverlapsUser reports whether the table's key range intersects
// [smallest, largest] in user-key space. A nil bound means unbounded.
func (f *FileMeta) OverlapsUser(smallest, largest []byte) bool {
	if smallest != nil && keys.CompareUser(f.Largest.UserKey(), smallest) < 0 {
		return false
	}
	if largest != nil && keys.CompareUser(f.Smallest.UserKey(), largest) > 0 {
		return false
	}
	return true
}

// Version is an immutable snapshot of the table layout across levels.
// Iterators and reads pin a version with Ref/Unref so obsolete tables are
// not deleted from under them.
type Version struct {
	// Levels[0] is ordered newest-first (by Num descending) and may
	// overlap; deeper levels are ordered by Smallest. In fragmented
	// profiles deeper levels may also overlap (within a guard). The slices
	// are fixed at construction (the builder or NewVersion): the fields
	// below are derived from them once, and readers share them unlocked.
	Levels [NumLevels][]*FileMeta

	// runs is each level regrouped into the sorted runs it is read as (see
	// LevelRuns), and l0PhysFiles the number of distinct physical files
	// behind level 0. Both are computed once at construction: reads consult
	// the runs on every Get and scan, the write governors consult the count
	// on every governed write, and neither may allocate there. Nothing about
	// runs is persisted.
	runs        [NumLevels][][]*FileMeta
	l0PhysFiles int

	// levelBytes is each level's total table size, so the picker's scores
	// cost nothing per pick.
	levelBytes [NumLevels]int64

	// id orders versions by construction; the version set stamps it (see
	// VersionSet.OldestLiveID).
	id uint64

	// quarantined holds the table numbers marked corrupt in this version.
	// A quarantined table stays in its level (its key span must keep
	// failing loudly, and salvage needs its metadata) but reads must not
	// open it and compactions must not consume it except to salvage it.
	// Membership is cleared by deletion: the salvage compaction deletes
	// the table, and the builder drops quarantine records for tables no
	// longer present.
	quarantined map[uint64]struct{}

	// vlogSegments records the value-log segments this version knows
	// about, keyed by segment file number.
	vlogSegments map[uint64]VLogSegment

	refs atomic.Int32
	vs   *VersionSet
}

// VLogSegment is the version-resident state of one value-log segment.
// Live bytes (for GC victim selection and tooling) are estimated as
// Size - GCOffset - Garbage, clamped at zero.
type VLogSegment struct {
	// Num is the segment's file number.
	Num uint64
	// Size is the durably recorded record-byte length (recovery may walk
	// a valid tail past it; see core recovery).
	Size int64
	// GCOffset is the reclamation watermark: records below it are dead
	// and their payloads punched.
	GCOffset int64
	// Garbage estimates dead bytes at or above GCOffset, accumulated from
	// compactions dropping superseded pointer entries.
	Garbage int64
}

// LiveBytes estimates the segment's still-referenced record bytes.
func (s VLogSegment) LiveBytes() int64 {
	live := s.Size - s.GCOffset - s.Garbage
	if live < 0 {
		return 0
	}
	return live
}

// VLogSegment returns the recorded state of segment num.
func (v *Version) VLogSegment(num uint64) (VLogSegment, bool) {
	s, ok := v.vlogSegments[num]
	return s, ok
}

// VLogSegments returns all recorded value-log segments, ordered by number.
func (v *Version) VLogSegments() []VLogSegment {
	out := make([]VLogSegment, 0, len(v.vlogSegments))
	for _, s := range v.vlogSegments {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Num < out[j].Num })
	return out
}

// NumVLogSegments returns the recorded segment count.
func (v *Version) NumVLogSegments() int { return len(v.vlogSegments) }

// IsQuarantined reports whether table num is quarantined in this version.
func (v *Version) IsQuarantined(num uint64) bool {
	_, ok := v.quarantined[num]
	return ok
}

// NumQuarantined returns the number of quarantined tables.
func (v *Version) NumQuarantined() int { return len(v.quarantined) }

// Quarantined returns the quarantined table numbers (unordered).
func (v *Version) Quarantined() []uint64 {
	out := make([]uint64, 0, len(v.quarantined))
	for num := range v.quarantined {
		out = append(out, num)
	}
	return out
}

// L0PhysFiles returns the number of distinct physical files at level 0
// (equal to the table count in one-file-per-table layouts, smaller with
// compaction files).
func (v *Version) L0PhysFiles() int { return v.l0PhysFiles }

// Runs returns level as the sorted runs it is read as (see LevelRuns):
// each run is ordered by Smallest with pairwise-disjoint user-key ranges,
// so a point lookup consults at most one table of it and a scan reads it
// through one concatenating iterator. The runs partition Levels[level].
// Callers must not modify the result.
func (v *Version) Runs(level int) [][]*FileMeta { return v.runs[level] }

// ReadAmp returns how many tables a point lookup may consult in level: one
// per run, except in a pile — a level below 0 that is not one run, which
// only fragmented profiles build — where guards partition the tables and a
// lookup consults one guard's stack, so the deepest stack counts.
func (v *Version) ReadAmp(level int) int {
	runs := v.runs[level]
	if level == 0 || len(runs) <= 1 {
		return len(runs)
	}
	perGuard := make(map[string]int, len(runs))
	deepest := 0
	for _, f := range v.Levels[level] {
		perGuard[string(f.Guard)]++
		deepest = max(deepest, perGuard[string(f.Guard)])
	}
	return deepest
}

// ID returns the version's position in construction order.
func (v *Version) ID() uint64 { return v.id }

// Ref pins the version.
func (v *Version) Ref() { v.refs.Add(1) }

// Unref releases a pin; at zero the version no longer holds tables live.
func (v *Version) Unref() {
	if v.refs.Add(-1) == 0 && v.vs != nil {
		v.vs.removeVersion(v)
	}
}

// NumFiles returns the total table count.
func (v *Version) NumFiles() int {
	n := 0
	for _, lvl := range v.Levels {
		n += len(lvl)
	}
	return n
}

// LevelBytes returns the total size of tables at the given level.
func (v *Version) LevelBytes(level int) int64 { return v.levelBytes[level] }

// NewVersion returns a detached version (no version set, never persisted)
// over the given levels, which must already be in level order. Tests and
// tools use it; the engine's versions come from the builder.
func NewVersion(levels [NumLevels][]*FileMeta) *Version {
	v := &Version{Levels: levels}
	for level := range v.Levels {
		v.deriveLevel(level)
	}
	return v
}

// LevelRuns is the one layout rule: it groups the tables of a level, or a
// compaction's share of one, into the sorted runs they are read as. Below
// level 0, tables ordered by Smallest with pairwise-disjoint user-key
// ranges are one run, which aliases files: a leveled level, or a pile that
// happens to be disjoint. Anything else — level 0, a fragmented profile's
// pile, repair output — is regrouped by SortedRuns.
func LevelRuns(level int, files []*FileMeta) [][]*FileMeta {
	if len(files) == 0 {
		return nil
	}
	ordered := level > 0
	for i := 1; i < len(files) && ordered; i++ {
		ordered = keys.CompareUser(files[i-1].Largest.UserKey(), files[i].Smallest.UserKey()) < 0
	}
	if ordered {
		return [][]*FileMeta{files[:len(files):len(files)]}
	}
	runs, _ := SortedRuns(files)
	return runs
}

// SortedRuns regroups tables that may overlap each other into sorted runs
// and counts the distinct physical files behind them. One flush or
// compaction writes one physical file whose logical SSTables are sorted and
// pairwise disjoint by construction, so the tables sharing a PhysNum,
// ordered by Smallest, form one run. A group that is not pairwise
// user-key-disjoint (repair output, hand-built versions) falls back to one
// run per table, newest first; legacy one-file-per-table layouts are
// single-table runs throughout. Runs come newest physical file first. files
// is not modified.
func SortedRuns(files []*FileMeta) (runs [][]*FileMeta, physFiles int) {
	if len(files) == 0 {
		return nil, 0
	}
	sorted := append([]*FileMeta(nil), files...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].PhysNum != sorted[j].PhysNum {
			return sorted[i].PhysNum > sorted[j].PhysNum
		}
		return keys.Compare(sorted[i].Smallest, sorted[j].Smallest) < 0
	})
	for lo := 0; lo < len(sorted); {
		hi := lo + 1
		disjoint := true
		for ; hi < len(sorted) && sorted[hi].PhysNum == sorted[lo].PhysNum; hi++ {
			if keys.CompareUser(sorted[hi-1].Largest.UserKey(), sorted[hi].Smallest.UserKey()) >= 0 {
				disjoint = false
			}
		}
		physFiles++
		if disjoint {
			runs = append(runs, sorted[lo:hi:hi])
		} else {
			group := sorted[lo:hi]
			sort.Slice(group, func(i, j int) bool { return group[i].Num > group[j].Num })
			for i := range group {
				runs = append(runs, group[i:i+1:i+1])
			}
		}
		lo = hi
	}
	return runs, physFiles
}

// deriveLevel computes the per-level derived state from Levels[level].
// Level 0 always takes SortedRuns (see LevelRuns), which also counts its
// physical files.
func (v *Version) deriveLevel(level int) {
	files := v.Levels[level]
	var total int64
	for _, f := range files {
		total += f.Size
	}
	v.levelBytes[level] = total
	if level == 0 {
		v.runs[0], v.l0PhysFiles = SortedRuns(files)
	} else {
		v.runs[level] = LevelRuns(level, files)
	}
}

// sortedLevel reports whether level is one sorted run below level 0, whose
// overlap queries binary-search the level.
func (v *Version) sortedLevel(level int) bool { return level > 0 && len(v.runs[level]) <= 1 }

// overlapRange returns the index range [lo, hi) of the tables of a sorted
// level that intersect [smallest, largest]: both bounds of a sorted level's
// tables increase with the index, so each end is one binary search.
func (v *Version) overlapRange(level int, smallest, largest []byte) (lo, hi int) {
	files := v.Levels[level]
	hi = len(files)
	if smallest != nil {
		lo = sort.Search(len(files), func(i int) bool {
			return keys.CompareUser(files[i].Largest.UserKey(), smallest) >= 0
		})
	}
	if largest != nil {
		hi = lo + sort.Search(len(files)-lo, func(i int) bool {
			return keys.CompareUser(files[lo+i].Smallest.UserKey(), largest) > 0
		})
	}
	return lo, hi
}

// Overlaps returns the tables at level whose user-key ranges intersect
// [smallest, largest] (nil = unbounded), in level order. On a sorted
// level the result aliases the version's own slice: callers must not
// modify it.
func (v *Version) Overlaps(level int, smallest, largest []byte) []*FileMeta {
	if v.sortedLevel(level) {
		lo, hi := v.overlapRange(level, smallest, largest)
		if lo == hi {
			return nil
		}
		return v.Levels[level][lo:hi:hi]
	}
	var out []*FileMeta
	for _, f := range v.Levels[level] {
		if f.OverlapsUser(smallest, largest) {
			out = append(out, f)
		}
	}
	return out
}

// OverlapBytes returns the total size of the tables Overlaps would return,
// without materializing them.
func (v *Version) OverlapBytes(level int, smallest, largest []byte) int64 {
	files := v.Levels[level]
	if v.sortedLevel(level) {
		lo, hi := v.overlapRange(level, smallest, largest)
		files = files[lo:hi] // every one of these overlaps
	}
	var total int64
	for _, f := range files {
		if f.OverlapsUser(smallest, largest) {
			total += f.Size
		}
	}
	return total
}

// SortedTables reports whether the invariantly-sorted-level assumption
// holds for the given level: non-overlapping and ordered. Used by tests
// and the engine's internal consistency checks (not valid for L0 or for
// fragmented profiles).
func (v *Version) SortedTables(level int) error {
	files := v.Levels[level]
	for i := 1; i < len(files); i++ {
		prev, cur := files[i-1], files[i]
		if keys.CompareUser(prev.Largest.UserKey(), cur.Smallest.UserKey()) >= 0 {
			return fmt.Errorf("manifest: level %d tables %d and %d overlap: %s vs %s",
				level, prev.Num, cur.Num, prev.Largest, cur.Smallest)
		}
	}
	return nil
}

// CheckRuns verifies the derived runs of every level: they partition the
// level, and every multi-table run is ordered by Smallest, pairwise
// user-key-disjoint, and either shares one physical file or is a whole
// level below 0.
func (v *Version) CheckRuns() error {
	for level, files := range v.Levels {
		inLevel := make(map[*FileMeta]bool, len(files))
		for _, f := range files {
			inLevel[f] = true
		}
		n := 0
		for _, run := range v.runs[level] {
			for i, f := range run {
				if !inLevel[f] {
					return fmt.Errorf("manifest: level-%d run holds table %d twice or from outside the level", level, f.Num)
				}
				inLevel[f] = false
				n++
				if i == 0 {
					continue
				}
				prev := run[i-1]
				if prev.PhysNum != f.PhysNum && !v.sortedLevel(level) {
					return fmt.Errorf("manifest: level-%d run mixes physical files %d and %d", level, prev.PhysNum, f.PhysNum)
				}
				if keys.CompareUser(prev.Largest.UserKey(), f.Smallest.UserKey()) >= 0 {
					return fmt.Errorf("manifest: level-%d run tables %d and %d overlap: %s vs %s",
						level, prev.Num, f.Num, prev.Largest, f.Smallest)
				}
			}
		}
		if n != len(files) {
			return fmt.Errorf("manifest: level-%d runs cover %d of %d tables", level, n, len(files))
		}
	}
	return nil
}

// versionBuilder accumulates edits on top of a base version. Deletions are
// level-aware: BoLT's settled compaction promotes a table by deleting it at
// level L and re-adding the *same* table number at level L+1 within one
// edit, so deletion must not cancel the addition at the other level.
type versionBuilder struct {
	base        *Version
	added       [NumLevels][]*FileMeta
	deleted     map[levelNum]bool
	quarantined map[uint64]struct{}
	vlog        map[uint64]VLogSegment
}

type levelNum struct {
	level int
	num   uint64
}

func newVersionBuilder(base *Version) *versionBuilder {
	b := &versionBuilder{base: base, deleted: make(map[levelNum]bool)}
	b.quarantined = make(map[uint64]struct{}, len(base.quarantinedOrNil()))
	for num := range base.quarantinedOrNil() {
		b.quarantined[num] = struct{}{}
	}
	b.vlog = make(map[uint64]VLogSegment, len(base.vlogSegmentsOrNil()))
	for num, s := range base.vlogSegmentsOrNil() {
		b.vlog[num] = s
	}
	return b
}

// quarantinedOrNil tolerates a nil base (the recovery bootstrap).
func (v *Version) quarantinedOrNil() map[uint64]struct{} {
	if v == nil {
		return nil
	}
	return v.quarantined
}

// vlogSegmentsOrNil tolerates a nil base (the recovery bootstrap).
func (v *Version) vlogSegmentsOrNil() map[uint64]VLogSegment {
	if v == nil {
		return nil
	}
	return v.vlogSegments
}

func (b *versionBuilder) apply(edit *VersionEdit) {
	for _, d := range edit.Deleted {
		b.deleted[levelNum{d.Level, d.Num}] = true
	}
	for _, a := range edit.Added {
		// Re-adding at a level where an earlier edit deleted it revives it
		// (does not occur in practice, but keeps apply order-consistent).
		delete(b.deleted, levelNum{a.Level, a.Meta.Num})
		b.added[a.Level] = append(b.added[a.Level], a.Meta)
	}
	for _, num := range edit.Quarantined {
		b.quarantined[num] = struct{}{}
	}
	for _, se := range edit.VLogSegments {
		// Monotonic merge (see VLogSegmentEdit): max sizes and watermarks,
		// accumulate garbage, clamp at zero.
		s, ok := b.vlog[se.Num]
		if !ok && se.Size == 0 && se.GCOffset == 0 {
			// Only a garbage delta, for a segment that is gone: a
			// compaction's tally that raced the GC pass deleting it. Applied,
			// it would recreate the segment as a size-0 ghost.
			continue
		}
		s.Num = se.Num
		if se.Size > s.Size {
			s.Size = se.Size
		}
		if se.GCOffset > s.GCOffset {
			s.GCOffset = se.GCOffset
		}
		s.Garbage += se.GarbageDelta
		if s.Garbage < 0 {
			s.Garbage = 0
		}
		b.vlog[se.Num] = s
	}
	for _, num := range edit.VLogDeleted {
		delete(b.vlog, num)
	}
}

// finish produces the new version. Levels deeper than 0 are sorted by
// smallest key (ties by Num, which keeps fragmented-profile ordering
// stable); level 0 is sorted newest-first.
func (b *versionBuilder) finish(vs *VersionSet) *Version {
	vs.versionSeq++
	v := &Version{vs: vs, id: vs.versionSeq}
	var touched [NumLevels]bool
	for ln := range b.deleted {
		touched[ln.level] = true
	}
	for level := 0; level < NumLevels; level++ {
		if b.base != nil && !touched[level] && len(b.added[level]) == 0 {
			// Levels are immutable, so an untouched one is shared with the
			// base along with everything derived from it.
			v.Levels[level] = b.base.Levels[level]
			v.levelBytes[level] = b.base.levelBytes[level]
			v.runs[level] = b.base.runs[level]
			if level == 0 {
				v.l0PhysFiles = b.base.l0PhysFiles
			}
			continue
		}
		var files []*FileMeta
		if b.base != nil {
			files = make([]*FileMeta, 0, len(b.base.Levels[level])+len(b.added[level]))
			for _, f := range b.base.Levels[level] {
				if !b.deleted[levelNum{level, f.Num}] {
					files = append(files, f)
				}
			}
		}
		for _, f := range b.added[level] {
			if !b.deleted[levelNum{level, f.Num}] {
				files = append(files, f)
			}
		}
		if level == 0 {
			sort.Slice(files, func(i, j int) bool { return files[i].Num > files[j].Num })
		} else {
			sort.Slice(files, func(i, j int) bool {
				c := keys.Compare(files[i].Smallest, files[j].Smallest)
				if c != 0 {
					return c < 0
				}
				return files[i].Num < files[j].Num
			})
		}
		v.Levels[level] = files
		v.deriveLevel(level)
	}
	// Quarantine membership survives only while the table does: deleting a
	// quarantined table (the salvage commit) is what clears its mark.
	if len(b.quarantined) > 0 {
		v.quarantined = make(map[uint64]struct{})
		for _, lvl := range v.Levels {
			for _, f := range lvl {
				if _, ok := b.quarantined[f.Num]; ok {
					v.quarantined[f.Num] = struct{}{}
				}
			}
		}
		if len(v.quarantined) == 0 {
			v.quarantined = nil
		}
	}
	if len(b.vlog) > 0 {
		v.vlogSegments = make(map[uint64]VLogSegment, len(b.vlog))
		for num, s := range b.vlog {
			v.vlogSegments[num] = s
		}
	}
	return v
}

// versionList tracks all live (referenced) versions so obsolete-file
// collection knows how far back a reader may still be looking.
type versionList struct {
	mu       sync.Mutex
	versions map[*Version]struct{}
}

func (l *versionList) add(v *Version) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.versions == nil {
		l.versions = make(map[*Version]struct{})
	}
	l.versions[v] = struct{}{}
}

func (l *versionList) remove(v *Version) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.versions, v)
}

// oldestID returns the smallest id among the live versions (the list is
// never empty once a version set exists: it holds the current version).
func (l *versionList) oldestID() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	oldest := ^uint64(0)
	for v := range l.versions {
		if v.id < oldest {
			oldest = v.id
		}
	}
	return oldest
}

// TotalBytes returns the cumulative size of all tables in the version.
func (v *Version) TotalBytes() int64 {
	var total int64
	for level := range v.Levels {
		total += v.LevelBytes(level)
	}
	return total
}

// DebugString renders the version layout for tools and tests: one line per
// sorted level, and for level 0 or a pile one line per sorted run.
func (v *Version) DebugString() string {
	var buf bytes.Buffer
	line := func(label string, files []*FileMeta) {
		buf.WriteString(label)
		for _, f := range files {
			fmt.Fprintf(&buf, " %d(phys=%d@%d,%dB)[%q..%q]",
				f.Num, f.PhysNum, f.Offset, f.Size, f.Smallest.UserKey(), f.Largest.UserKey())
		}
		buf.WriteByte('\n')
	}
	for level, runs := range v.runs {
		if level > 0 && len(runs) == 1 {
			line(fmt.Sprintf("L%d:", level), runs[0])
			continue
		}
		for i, run := range runs {
			line(fmt.Sprintf("L%d run %d/%d:", level, i+1, len(runs)), run)
		}
	}
	return buf.String()
}
