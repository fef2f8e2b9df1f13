// Package compaction implements victim selection and output partitioning
// for every engine profile:
//
//   - classic: one victim per compaction, chosen round-robin by the
//     per-level compact pointer (LevelDB).
//   - group: several victims per compaction up to a byte budget, so one
//     barrier covers more data (BoLT +GC).
//   - settled: victims are chosen to minimize next-level overlap, each is
//     merged only with the next-level tables it overlaps, and victims with
//     zero overlap are promoted by a MANIFEST-only edit (BoLT +STL).
//   - fragmented: PebblesDB-style FLSM — a level may hold overlapping
//     tables; compaction merges one overlapping pile and partitions the
//     output at guard keys of the next level without rewriting it.
package compaction

import (
	"hash/fnv"
	"math/bits"
	"slices"
	"sort"

	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/manifest"
)

// Options parameterize the picker.
type Options struct {
	// L0Trigger is the L0 file count that triggers compaction.
	L0Trigger int
	// L1MaxBytes is the size limit of level 1; deeper levels multiply by
	// Multiplier.
	L1MaxBytes int64
	// Multiplier is the per-level size growth factor (10 in LevelDB).
	Multiplier float64
	// GroupBytes is the victim byte budget per compaction; 0 selects a
	// single victim (legacy behaviour).
	GroupBytes int64
	// Settled enables minimum-overlap victim selection with promotion of
	// non-overlapping victims.
	Settled bool
	// Fragmented enables FLSM (guarded, overlapping) levels.
	Fragmented bool
	// GuardBaseBits and GuardShiftBits control guard density for
	// fragmented levels: a user key is a guard of level L when its hash
	// has at least GuardBaseBits - GuardShiftBits*(L-1) trailing zero bits.
	GuardBaseBits  int
	GuardShiftBits int
	// L0ByPhysicalFiles does nothing: level 0 is always scored by distinct
	// physical files (see Score). The field stays only for callers that
	// still set it.
	L0ByPhysicalFiles bool
}

// LevelMaxBytes returns the byte limit of a level (level >= 1).
func (o Options) LevelMaxBytes(level int) int64 {
	limit := float64(o.L1MaxBytes)
	for l := 1; l < level; l++ {
		limit *= o.Multiplier
	}
	return int64(limit)
}

// IsGuard reports whether userKey is a guard key of the given level.
// Guard density increases with depth so each level fragments into
// proportionally more guards, following PebblesDB.
func (o Options) IsGuard(userKey []byte, level int) bool {
	need := o.GuardBaseBits - o.GuardShiftBits*(level-1)
	if need <= 0 {
		return true
	}
	h := fnv.New64a()
	h.Write(userKey)
	return bits.TrailingZeros64(h.Sum64()) >= need
}

// Reason values describe what triggered a compaction. They appear in
// events and map onto the per-reason metrics counters.
const (
	// ReasonL0 is an L0 file-count trigger.
	ReasonL0 = "L0 file count"
	// ReasonLevelSize is a level byte-size trigger.
	ReasonLevelSize = "level size"
	// ReasonSettled is a size trigger served by settled (min-overlap)
	// selection.
	ReasonSettled = "level size (settled)"
	// ReasonFragmented is a size trigger served by an FLSM pile merge.
	ReasonFragmented = "level size (fragmented)"
	// ReasonSeek is LevelDB's read-triggered compaction.
	ReasonSeek = "seek"
	// ReasonManual is a CompactRange request.
	ReasonManual = "manual"
	// ReasonSalvage is a quarantined-table salvage: a same-level rewrite of
	// the table's still-checksummed blocks that deletes the corrupt table
	// (clearing its quarantine).
	ReasonSalvage = "salvage"
)

// Compaction describes one unit of background work chosen by the picker.
type Compaction struct {
	// Level is the input level; OutputLevel is Level+1 except for
	// fragmented last-level self-merges.
	Level       int
	OutputLevel int
	// Inputs are the victims at Level that will be merge-rewritten.
	Inputs []*manifest.FileMeta
	// NextInputs are overlapping tables at OutputLevel merged with Inputs.
	NextInputs []*manifest.FileMeta
	// Settled are victims at Level with zero next-level overlap: they are
	// promoted to OutputLevel by a MANIFEST edit alone — no data rewrite.
	Settled []*manifest.FileMeta
	// CutPoints are user keys at which output tables must be cut so no
	// output's key range spans a settled (promoted) table's range.
	CutPoints [][]byte
	// Reason is a human-readable trigger description.
	Reason string
}

// InputBytes returns the total bytes that will be read.
func (c *Compaction) InputBytes() int64 {
	var total int64
	for _, f := range c.Inputs {
		total += f.Size
	}
	for _, f := range c.NextInputs {
		total += f.Size
	}
	return total
}

// Range returns the user-key span of the rewritten inputs (nil, nil if the
// compaction rewrites nothing).
func (c *Compaction) Range() (smallest, largest []byte) {
	for _, f := range append(append([]*manifest.FileMeta{}, c.Inputs...), c.NextInputs...) {
		if smallest == nil || keys.CompareUser(f.Smallest.UserKey(), smallest) < 0 {
			smallest = f.Smallest.UserKey()
		}
		if largest == nil || keys.CompareUser(f.Largest.UserKey(), largest) > 0 {
			largest = f.Largest.UserKey()
		}
	}
	return smallest, largest
}

// Picker chooses compactions over versions.
type Picker struct {
	Opts Options
}

// Score returns the compaction pressure of each level: >= 1 means the
// level needs compaction. L0 scores by distinct physical files: with BoLT
// compaction files one flush adds one physical file holding many logical
// SSTables, and in one-file-per-table layouts the count is the table
// count, so the L0 trigger reads the same on every layout. Other levels
// score by bytes.
func (p *Picker) Score(v *manifest.Version, level int) float64 {
	if level == 0 {
		return float64(v.L0PhysFiles()) / float64(p.Opts.L0Trigger)
	}
	return float64(v.LevelBytes(level)) / float64(p.Opts.LevelMaxBytes(level))
}

// MaxScoreLevel returns the level with the highest score and that score.
// The last level never compacts downward.
func (p *Picker) MaxScoreLevel(v *manifest.Version) (int, float64) {
	bestLevel, bestScore := -1, 0.0
	for level := 0; level < manifest.NumLevels-1; level++ {
		if s := p.Score(v, level); s > bestScore {
			bestLevel, bestScore = level, s
		}
	}
	return bestLevel, bestScore
}

// Env carries the engine-owned pick-time state: the per-level round-robin
// cursors, the in-flight reservation registry, and the pending
// seek-compaction candidate (if any). The zero Env is valid for tests: no
// cursors, no concurrency, no seek candidate.
type Env struct {
	// CompactPointer returns the round-robin cursor of a level; nil means
	// no cursors (picking starts at the level's first table).
	CompactPointer func(level int) keys.InternalKey
	// InFlight holds the reservations of executing compactions; the picker
	// never returns a compaction conflicting with them. Nil means empty.
	InFlight *InFlight
	// SeekFile, when non-nil, is a table whose seek budget ran out;
	// SeekLevel is its level. The picker prefers it over score-based
	// choices when it is still current and conflict-free.
	SeekFile  *manifest.FileMeta
	SeekLevel int
}

// Pick returns the next conflict-free compaction, or nil when nothing is
// both over threshold and runnable. The seek candidate is tried first
// (seek compactions fire below the size thresholds by design); then
// levels are tried in descending score order, so a level whose candidates
// are all reserved by in-flight work yields the next-best level instead
// of no pick at all.
func (p *Picker) Pick(v *manifest.Version, env Env) *Compaction {
	// Salvage first: a quarantined table is failing reads over its whole key
	// span, so shrinking that blast radius outranks any size trigger.
	if c := p.PickSalvage(v, env); c != nil {
		return c
	}
	if c := p.pickSeek(v, env); c != nil {
		return c
	}
	for _, level := range p.levelsByScore(v) {
		var c *Compaction
		switch {
		case p.Opts.Fragmented:
			c = p.pickFragmented(v, level, env.InFlight)
		case level == 0:
			c = p.pickL0(v)
		case p.Opts.Settled:
			c = p.pickSettled(v, level, env.InFlight)
		default:
			var pointer keys.InternalKey
			if env.CompactPointer != nil {
				pointer = env.CompactPointer(level)
			}
			c = p.pickLeveled(v, level, pointer, env.InFlight)
		}
		if c != nil && !touchesQuarantined(v, c) && !env.InFlight.Conflicts(c) {
			return c
		}
	}
	return nil
}

// PickSalvage returns a salvage compaction for a conflict-free quarantined
// table, or nil when none is runnable. Salvage is a same-level rewrite
// (OutputLevel == Level): the readable blocks are rewritten into fresh
// tables whose span is a subset of the old table's span — so a sorted
// level stays sorted — and the corrupt table is deleted, which is what
// clears its quarantine mark. The executor lives in internal/core; the
// Reason tag is how it recognizes the pick.
func (p *Picker) PickSalvage(v *manifest.Version, env Env) *Compaction {
	for level := 0; level < manifest.NumLevels; level++ {
		for _, f := range v.Levels[level] {
			if !v.IsQuarantined(f.Num) {
				continue
			}
			c := &Compaction{
				Level:       level,
				OutputLevel: level,
				Inputs:      []*manifest.FileMeta{f},
				Reason:      ReasonSalvage,
			}
			if env.InFlight.Conflicts(c) {
				continue
			}
			return c
		}
	}
	return nil
}

// VLogCursor is the engine's in-memory value-GC progress on one segment,
// which runs ahead of the version: GC passes whose watermark advance waits
// for the next flush to become durable still count as done, so passes
// chain on a segment without waiting for that flush.
type VLogCursor struct {
	// GCOffset is the newest pending watermark (ignored when not above the
	// version's).
	GCOffset int64
	// GarbageDelta is the sum of the pending advances' garbage deltas.
	GarbageDelta int64
	// Skip excludes the segment from picking: its GC cannot advance past a
	// rotted record header (without the skip it would hog every pick
	// forever), or its recorded size is stale.
	Skip bool
}

// Apply returns s's watermark and garbage with the cursor's pending
// progress folded in.
func (c VLogCursor) Apply(s manifest.VLogSegment) (gcOffset, garbage int64) {
	return max(s.GCOffset, c.GCOffset), max(s.Garbage+c.GarbageDelta, 0)
}

// PickValueGC returns the sealed value-log segment whose uncollected bytes
// are deadest, or 0 when no segment crosses minRatio. activeSeg (the
// segment the writer is appending to) is never picked: its size is still
// growing and its records may be newer than any flushed table. cursors
// carries the engine's progress ahead of v (see VLogCursor). The executor
// lives in internal/core, which runs one pass at a time.
func (p *Picker) PickValueGC(v *manifest.Version, activeSeg uint64, minRatio float64, cursors map[uint64]VLogCursor) uint64 {
	var best uint64
	bestRatio := -1.0
	for _, s := range v.VLogSegments() {
		cur := cursors[s.Num]
		gcOffset, garbage := cur.Apply(s)
		if s.Num == activeSeg || s.Size == 0 || gcOffset >= s.Size || cur.Skip {
			continue
		}
		remaining := s.Size - gcOffset
		ratio := float64(garbage) / float64(remaining)
		if ratio < minRatio && garbage < remaining {
			continue
		}
		if ratio > bestRatio {
			best, bestRatio = s.Num, ratio
		}
	}
	return best
}

// touchesQuarantined reports whether any table c consumes or promotes is
// quarantined. Regular compactions must not read a quarantined table (the
// merge would fail on the corrupt block) nor move it (salvage owns it).
func touchesQuarantined(v *manifest.Version, c *Compaction) bool {
	if v.NumQuarantined() == 0 {
		return false
	}
	found := false
	eachInputFile(c, func(num uint64) {
		if v.IsQuarantined(num) {
			found = true
		}
	})
	return found
}

// levelsByScore returns the levels at or over compaction threshold,
// highest score first. The last level never compacts downward.
func (p *Picker) levelsByScore(v *manifest.Version) []int {
	type scored struct {
		level int
		score float64
	}
	var over []scored
	for level := 0; level < manifest.NumLevels-1; level++ {
		if s := p.Score(v, level); s >= 1.0 {
			over = append(over, scored{level, s})
		}
	}
	sort.SliceStable(over, func(i, j int) bool { return over[i].score > over[j].score })
	levels := make([]int, len(over))
	for i, s := range over {
		levels[i] = s.level
	}
	return levels
}

// pickSeek builds the compaction for a pending seek candidate, or nil when
// the candidate is stale (no longer in the version), inapplicable (last
// level, fragmented profile), or conflicting with in-flight work.
func (p *Picker) pickSeek(v *manifest.Version, env Env) *Compaction {
	f := env.SeekFile
	if f == nil || p.Opts.Fragmented || env.SeekLevel >= manifest.NumLevels-1 {
		return nil
	}
	level := env.SeekLevel
	current := false
	for _, cur := range v.Levels[level] {
		if cur == f {
			current = true
			break
		}
	}
	if !current {
		return nil
	}
	c := &Compaction{
		Level:       level,
		OutputLevel: level + 1,
		Inputs:      []*manifest.FileMeta{f},
		Reason:      ReasonSeek,
	}
	if level == 0 {
		// Level-0 files overlap each other: compacting one without its
		// overlapping siblings would leave older versions above newer
		// ones. Expand to the overlap closure, as LevelDB does.
		c.Inputs = L0OverlapClosure(v.Levels[0], f)
	}
	smallest, largest := c.Range()
	c.NextInputs = v.Overlaps(level+1, smallest, largest)
	if touchesQuarantined(v, c) || env.InFlight.Conflicts(c) {
		return nil
	}
	return c
}

// pickL0 merges all level-0 tables with their level-1 overlaps. L0 tables
// overlap each other, so taking them all at once is both simplest and what
// a 64 MB-memtable configuration wants (the whole flush burst moves down
// in one barrier-cheap compaction under BoLT). No reservation filtering
// happens here: any in-flight L0 compaction excludes the whole level (the
// L0-exclusivity conflict rule), so a partial pick could never run anyway.
func (p *Picker) pickL0(v *manifest.Version) *Compaction {
	c := &Compaction{Level: 0, OutputLevel: 1, Reason: ReasonL0}
	c.Inputs = append(c.Inputs, v.Levels[0]...)
	smallest, largest := c.Range()
	c.NextInputs = v.Overlaps(1, smallest, largest)
	return c
}

// unreservedFiles returns files minus the tables reserved by in-flight
// compactions (the input slice when nothing is reserved).
func unreservedFiles(files []*manifest.FileMeta, in *InFlight) []*manifest.FileMeta {
	if in.Len() == 0 {
		return files
	}
	out := make([]*manifest.FileMeta, 0, len(files))
	for _, f := range files {
		if !in.FileReserved(f.Num) {
			out = append(out, f)
		}
	}
	return out
}

// pickLeveled implements classic and group selection: victims are taken in
// key order starting after the compact pointer until the byte budget is
// met (one file when GroupBytes is zero). Tables reserved by in-flight
// compactions are skipped so concurrent picks spread across the level.
func (p *Picker) pickLeveled(v *manifest.Version, level int, pointer keys.InternalKey, in *InFlight) *Compaction {
	files := unreservedFiles(v.Levels[level], in)
	if len(files) == 0 {
		return nil
	}
	start := 0
	if pointer != nil {
		start = sort.Search(len(files), func(i int) bool {
			return keys.Compare(files[i].Largest, pointer) > 0
		})
		if start == len(files) {
			start = 0
		}
	}
	c := &Compaction{Level: level, OutputLevel: level + 1, Reason: ReasonLevelSize}
	var budget int64
	for i := 0; i < len(files); i++ {
		f := files[(start+i)%len(files)]
		c.Inputs = append(c.Inputs, f)
		budget += f.Size
		if p.Opts.GroupBytes == 0 || budget >= p.Opts.GroupBytes {
			break
		}
	}
	// Keep inputs in key order (wrap-around may have disordered them).
	sortBySmallest(c.Inputs)
	smallest, largest := c.Range()
	c.NextInputs = v.Overlaps(level+1, smallest, largest)
	return c
}

// pickSettled implements BoLT's settled compaction: victims are the files
// with the least next-level overlap, up to the group byte budget. Victims
// with zero overlap are promoted without rewrite. Reserved tables are
// excluded from candidacy. Each rewritten victim is merged only with the
// next-level tables it overlaps: a next-level table between victims that
// overlaps none of them is neither read nor rewritten, and outputs are cut
// at its smallest key so none spans it, as at a promoted table's.
func (p *Picker) pickSettled(v *manifest.Version, level int, in *InFlight) *Compaction {
	files := unreservedFiles(v.Levels[level], in)
	if len(files) == 0 {
		return nil
	}
	type scored struct {
		f       *manifest.FileMeta
		overlap int64
	}
	cands := make([]scored, 0, len(files))
	for _, f := range files {
		cands = append(cands, scored{f, v.OverlapBytes(level+1, f.Smallest.UserKey(), f.Largest.UserKey())})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].overlap < cands[j].overlap })

	budget := p.Opts.GroupBytes
	if budget == 0 {
		budget = 1 // degenerate: single victim
	}
	c := &Compaction{Level: level, OutputLevel: level + 1, Reason: ReasonSettled}
	var taken int64
	for _, s := range cands {
		if taken >= budget {
			break
		}
		taken += s.f.Size
		if s.overlap == 0 {
			c.Settled = append(c.Settled, s.f)
		} else {
			c.Inputs = append(c.Inputs, s.f)
		}
	}
	sortBySmallest(c.Inputs)
	sortBySmallest(c.Settled)
	if len(c.Inputs) > 0 {
		smallest, largest := c.Range()
		// Below level 0 every level is one sorted run (the fragmented
		// profile does not pick here), so victims and next-level tables
		// both ascend, and one forward walk over the victims decides, for
		// each next-level table in the span, whether some victim overlaps it.
		next := v.Overlaps(level+1, smallest, largest)
		c.NextInputs = make([]*manifest.FileMeta, 0, len(next))
		j, skipping := 0, false
		for _, f := range next {
			for j < len(c.Inputs) && keys.CompareUser(c.Inputs[j].Largest.UserKey(), f.Smallest.UserKey()) < 0 {
				j++
			}
			overlapped := j < len(c.Inputs) && keys.CompareUser(c.Inputs[j].Smallest.UserKey(), f.Largest.UserKey()) <= 0
			switch {
			case overlapped:
				c.NextInputs = append(c.NextInputs, f)
			case !skipping:
				// No merged key lies in a skipped table or between two
				// adjacent ones (a victim there would overlap nothing and
				// be promoted), so one cut ahead of each run of skipped
				// tables keeps every output off all of them.
				c.CutPoints = append(c.CutPoints, f.Smallest.UserKey())
			}
			skipping = !overlapped
		}
		// Outputs must not span a promoted table's key range either.
		for _, s := range c.Settled {
			c.CutPoints = append(c.CutPoints, s.Smallest.UserKey())
		}
		slices.SortFunc(c.CutPoints, keys.CompareUser)
	}
	return c
}

// pickFragmented implements FLSM selection: the heaviest overlapping pile
// (connected component of range-overlapping tables) in the level is merged
// and pushed down; the next level is NOT read (its tables are left in
// place — the defining FLSM trait). Compactions out of the last level are
// in-place merges that de-overlap the pile. Reserved tables are excluded
// before piles are formed.
func (p *Picker) pickFragmented(v *manifest.Version, level int, in *InFlight) *Compaction {
	files := unreservedFiles(v.Levels[level], in)
	if len(files) == 0 {
		return nil
	}
	var (
		best      []*manifest.FileMeta
		bestBytes int64
	)
	if level == 0 {
		best = append(best, files...)
	} else {
		sorted := append([]*manifest.FileMeta(nil), files...)
		sortBySmallest(sorted)
		var cur []*manifest.FileMeta
		var curBytes int64
		var curMax []byte
		flush := func() {
			// A single-table pile has nothing to merge; pushing it down
			// alone is still useful to relieve the level, so allow it.
			if curBytes > bestBytes {
				best = append([]*manifest.FileMeta(nil), cur...)
				bestBytes = curBytes
			}
		}
		for _, f := range sorted {
			if len(cur) > 0 && keys.CompareUser(f.Smallest.UserKey(), curMax) <= 0 {
				cur = append(cur, f)
				curBytes += f.Size
				if keys.CompareUser(f.Largest.UserKey(), curMax) > 0 {
					curMax = f.Largest.UserKey()
				}
				continue
			}
			flush()
			cur = cur[:0]
			cur = append(cur, f)
			curBytes = f.Size
			curMax = f.Largest.UserKey()
		}
		flush()
	}
	out := level + 1
	reason := ReasonFragmented
	if level == manifest.NumLevels-2 {
		// Piles pushed into the last level would accumulate forever; merge
		// the pile with its last-level overlaps instead (PebblesDB's
		// final-level compaction behaves this way).
		c := &Compaction{Level: level, OutputLevel: out, Reason: reason}
		c.Inputs = best
		smallest, largest := c.Range()
		c.NextInputs = v.Overlaps(out, smallest, largest)
		return c
	}
	return &Compaction{Level: level, OutputLevel: out, Inputs: best, Reason: reason}
}

// L0OverlapClosure returns the transitive closure of level-0 files whose
// user-key ranges overlap seed's range (growing the range as files join).
func L0OverlapClosure(files []*manifest.FileMeta, seed *manifest.FileMeta) []*manifest.FileMeta {
	smallest := seed.Smallest.UserKey()
	largest := seed.Largest.UserKey()
	in := map[uint64]bool{seed.Num: true}
	out := []*manifest.FileMeta{seed}
	for changed := true; changed; {
		changed = false
		for _, f := range files {
			if in[f.Num] || !f.OverlapsUser(smallest, largest) {
				continue
			}
			in[f.Num] = true
			out = append(out, f)
			if keys.CompareUser(f.Smallest.UserKey(), smallest) < 0 {
				smallest = f.Smallest.UserKey()
			}
			if keys.CompareUser(f.Largest.UserKey(), largest) > 0 {
				largest = f.Largest.UserKey()
			}
			changed = true
		}
	}
	return out
}

func sortBySmallest(files []*manifest.FileMeta) {
	sort.Slice(files, func(i, j int) bool {
		c := keys.Compare(files[i].Smallest, files[j].Smallest)
		if c != 0 {
			return c < 0
		}
		return files[i].Num < files[j].Num
	})
}
