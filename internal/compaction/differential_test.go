package compaction

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/manifest"
)

// The linear reference: Version.Overlaps, pickSettled and pickLeveled
// written as plain scans, without the binary searches and forward walks of
// the picker. The differential tests below hold the picker to returning
// exactly what these return; they live here, in test code, and nowhere else.

func refOverlaps(v *manifest.Version, level int, smallest, largest []byte) []*manifest.FileMeta {
	var out []*manifest.FileMeta
	for _, f := range v.Levels[level] {
		if f.OverlapsUser(smallest, largest) {
			out = append(out, f)
		}
	}
	return out
}

func refPickSettled(p *Picker, v *manifest.Version, level int, in *InFlight) *Compaction {
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
		var ov int64
		for _, nf := range refOverlaps(v, level+1, f.Smallest.UserKey(), f.Largest.UserKey()) {
			ov += nf.Size
		}
		cands = append(cands, scored{f, ov})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].overlap < cands[j].overlap })

	budget := p.Opts.GroupBytes
	if budget == 0 {
		budget = 1
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
		// A next-level table in the victims' span is merged only if some
		// victim overlaps it. The first table of each run of skipped ones
		// and every promoted table contribute a cut point.
		smallest, largest := c.Range()
		skipping := false
		for _, nf := range refOverlaps(v, level+1, smallest, largest) {
			overlapped := false
			for _, f := range c.Inputs {
				if nf.OverlapsUser(f.Smallest.UserKey(), f.Largest.UserKey()) {
					overlapped = true
				}
			}
			if overlapped {
				c.NextInputs = append(c.NextInputs, nf)
			} else if !skipping {
				c.CutPoints = append(c.CutPoints, nf.Smallest.UserKey())
			}
			skipping = !overlapped
		}
		for _, s := range c.Settled {
			c.CutPoints = append(c.CutPoints, s.Smallest.UserKey())
		}
		sort.Slice(c.CutPoints, func(i, j int) bool { return keys.CompareUser(c.CutPoints[i], c.CutPoints[j]) < 0 })
	}
	return c
}

func refPickLeveled(p *Picker, v *manifest.Version, level int, pointer keys.InternalKey, in *InFlight) *Compaction {
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
	sortBySmallest(c.Inputs)
	smallest, largest := c.Range()
	c.NextInputs = refOverlaps(v, level+1, smallest, largest)
	return c
}

// --- seeded random versions ---

func userKey(n int) string { return fmt.Sprintf("k%09d", n) }

// sortedLevel returns n tables in key order with pairwise-disjoint ranges:
// single-key tables, ranges touching at consecutive keys and wide gaps all
// occur.
func sortedLevel(rng *rand.Rand, nextNum *uint64, n, keySpace int) []*manifest.FileMeta {
	files := make([]*manifest.FileMeta, 0, n)
	stride := keySpace / (n + 1)
	if stride < 2 {
		stride = 2
	}
	pos := 0
	for i := 0; i < n; i++ {
		lo := pos + rng.Intn(stride)
		hi := lo
		if rng.Intn(4) != 0 {
			hi = lo + rng.Intn(stride)
		}
		*nextNum++
		files = append(files, &manifest.FileMeta{
			Num: *nextNum, PhysNum: *nextNum, Size: int64(1 + rng.Intn(64<<10)),
			Smallest: ik(userKey(lo)), Largest: ik(userKey(hi)),
		})
		pos = hi + 1
		if rng.Intn(3) == 0 {
			pos += rng.Intn(3 * stride)
		}
	}
	return files
}

// piledLevel returns n tables with freely overlapping ranges in level order
// (by Smallest, ties by Num), as a fragmented profile's levels hold them.
func piledLevel(rng *rand.Rand, nextNum *uint64, n, keySpace int) []*manifest.FileMeta {
	files := make([]*manifest.FileMeta, 0, n)
	for i := 0; i < n; i++ {
		lo := rng.Intn(keySpace)
		*nextNum++
		files = append(files, &manifest.FileMeta{
			Num: *nextNum, PhysNum: *nextNum, Size: int64(1 + rng.Intn(64<<10)),
			Smallest: ik(userKey(lo)), Largest: ik(userKey(lo + rng.Intn(keySpace/8+1))),
		})
	}
	sortBySmallest(files)
	return files
}

// l0Level returns n mutually overlapping tables, newest (largest Num) first.
func l0Level(rng *rand.Rand, nextNum *uint64, n, keySpace int) []*manifest.FileMeta {
	files := piledLevel(rng, nextNum, n, keySpace)
	sort.Slice(files, func(i, j int) bool { return files[i].Num > files[j].Num })
	return files
}

// keySpaceOf is the span of user keys the tables of a seed's version cover.
func keySpaceOf(seed int) int {
	if seed%10 == 0 {
		return 40 * 5000
	}
	return 40 * 120
}

// randomVersion builds the version of one seed. Most seeds stay small so a
// thousand of them run in seconds; every tenth has the shape that made the
// linear picker expensive — some 700 candidates over a next level of up to
// 5 000 tables. Some carry quarantined tables (built through a VersionSet
// then).
func randomVersion(t *testing.T, rng *rand.Rand, seed int, fragmented bool) *manifest.Version {
	maxTables := [5]int{0, 120, 120, 120, 120}
	if seed%10 == 0 {
		maxTables = [5]int{0, 100, 700, 5000, 700}
	}
	keySpace := keySpaceOf(seed)
	var nextNum uint64
	levels := map[int][]*manifest.FileMeta{0: l0Level(rng, &nextNum, rng.Intn(12), keySpace)}
	for level := 1; level <= 4; level++ {
		n := rng.Intn(maxTables[level] + 1)
		if fragmented {
			levels[level] = piledLevel(rng, &nextNum, n/4, keySpace)
		} else {
			levels[level] = sortedLevel(rng, &nextNum, n, keySpace)
		}
	}
	if fragmented {
		// The fragmented picker reads the next level only out of the
		// second-to-last one.
		levels[5] = piledLevel(rng, &nextNum, rng.Intn(60), keySpace)
		levels[6] = piledLevel(rng, &nextNum, rng.Intn(60), keySpace)
	}
	if seed%3 != 0 {
		var lv [manifest.NumLevels][]*manifest.FileMeta
		for level, files := range levels {
			lv[level] = files
		}
		return manifest.NewVersion(lv)
	}
	var quarantine []uint64
	// In level order: ranging over the map would draw from rng in a random
	// order, and the seed would no longer fix which tables are quarantined.
	for level := range manifest.NumLevels {
		for _, f := range levels[level] {
			if rng.Intn(200) == 0 {
				quarantine = append(quarantine, f.Num)
			}
		}
	}
	return quarantinedVersion(t, levels, quarantine...)
}

// randomInFlight reserves a few random tables the way executing compactions
// would (nil for a third of the seeds: no reservations at all).
func randomInFlight(rng *rand.Rand, v *manifest.Version) *InFlight {
	if rng.Intn(3) == 0 {
		return nil
	}
	in := NewInFlight()
	for i := rng.Intn(4); i > 0; i-- {
		level := 1 + rng.Intn(3)
		files := v.Levels[level]
		if len(files) == 0 {
			continue
		}
		lo := rng.Intn(len(files))
		hi := lo + 1 + rng.Intn(8)
		if hi > len(files) {
			hi = len(files)
		}
		c := &Compaction{Level: level, OutputLevel: level + 1, Inputs: files[lo:hi]}
		smallest, largest := c.Range()
		c.NextInputs = refOverlaps(v, level+1, smallest, largest)
		in.Reserve(c)
	}
	return in
}

func nums(files []*manifest.FileMeta) []uint64 {
	out := make([]uint64, len(files))
	for i, f := range files {
		out[i] = f.Num
	}
	return out
}

func sameCompaction(t *testing.T, what string, got, want *Compaction) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: got %+v, want %+v", what, got, want)
	}
	if got == nil {
		return
	}
	if got.Level != want.Level || got.OutputLevel != want.OutputLevel || got.Reason != want.Reason {
		t.Fatalf("%s: header L%d->L%d %q, want L%d->L%d %q", what,
			got.Level, got.OutputLevel, got.Reason, want.Level, want.OutputLevel, want.Reason)
	}
	for _, part := range []struct {
		name      string
		got, want []*manifest.FileMeta
	}{
		{"Inputs", got.Inputs, want.Inputs},
		{"Settled", got.Settled, want.Settled},
		{"NextInputs", got.NextInputs, want.NextInputs},
	} {
		if g, w := fmt.Sprint(nums(part.got)), fmt.Sprint(nums(part.want)); g != w {
			t.Fatalf("%s: %s = %s, want %s", what, part.name, g, w)
		}
	}
	if g, w := fmt.Sprintf("%q", got.CutPoints), fmt.Sprintf("%q", want.CutPoints); g != w {
		t.Fatalf("%s: CutPoints = %s, want %s", what, g, w)
	}
}

// randomBound returns a user key in (and somewhat beyond) the key space, or
// nil for an open bound.
func randomBound(rng *rand.Rand, keySpace int) []byte {
	if rng.Intn(8) == 0 {
		return nil
	}
	return []byte(userKey(rng.Intn(keySpace + keySpace/8)))
}

// randomRange returns an ordered pair of random bounds.
func randomRange(rng *rand.Rand, keySpace int) (lo, hi []byte) {
	lo, hi = randomBound(rng, keySpace), randomBound(rng, keySpace)
	if lo != nil && hi != nil && keys.CompareUser(lo, hi) > 0 {
		lo, hi = hi, lo
	}
	return lo, hi
}

// inputsRange is the user-key span of c.Inputs alone: what the pickers
// derive NextInputs from.
func inputsRange(c *Compaction) (smallest, largest []byte) {
	return (&Compaction{Inputs: c.Inputs}).Range()
}

// refLevelsByScore is levelsByScore over level sizes summed table by table.
func refLevelsByScore(p *Picker, v *manifest.Version) []int {
	var levels []int
	score := map[int]float64{}
	for level := 0; level < manifest.NumLevels-1; level++ {
		s := float64(len(v.Levels[0])) / float64(p.Opts.L0Trigger)
		if level > 0 {
			var total int64
			for _, f := range v.Levels[level] {
				total += f.Size
			}
			s = float64(total) / float64(p.Opts.LevelMaxBytes(level))
		}
		if s >= 1.0 {
			levels = append(levels, level)
			score[level] = s
		}
	}
	sort.SliceStable(levels, func(i, j int) bool { return score[levels[i]] > score[levels[j]] })
	return levels
}

// TestPicksMatchLinearReference: over a thousand seeded versions — sorted
// levels of up to 5 000 tables, with and without in-flight reservations and
// quarantined tables, plus level 0 — the overlap query and the settled and
// leveled pickers return exactly what the linear reference returns.
func TestPicksMatchLinearReference(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 200
	}
	// What the seeds actually exercised, so the test cannot pass vacuously.
	var promoted, rewrote, skipped, reserved, quarantineSkips, wholePicks int
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		v := randomVersion(t, rng, seed, false)
		in := randomInFlight(rng, v)
		if seed%6 == 0 && v.NumQuarantined() > 0 {
			// Salvages of every quarantined table already in flight: Pick
			// falls through to the size-triggered pickers, which must then
			// steer clear of those tables.
			if in == nil {
				in = NewInFlight()
			}
			for level, files := range v.Levels {
				for _, f := range files {
					if v.IsQuarantined(f.Num) {
						in.Reserve(&Compaction{Level: level, OutputLevel: level, Inputs: []*manifest.FileMeta{f}, Reason: ReasonSalvage})
					}
				}
			}
		}
		keySpace := keySpaceOf(seed)
		what := func(s string, args ...any) string {
			return fmt.Sprintf("seed %d: ", seed) + fmt.Sprintf(s, args...)
		}

		for q := 0; q < 40; q++ {
			level := rng.Intn(manifest.NumLevels)
			lo, hi := randomRange(rng, keySpace)
			want := refOverlaps(v, level, lo, hi)
			if g, w := fmt.Sprint(nums(v.Overlaps(level, lo, hi))), fmt.Sprint(nums(want)); g != w {
				t.Fatalf("%s", what("Overlaps(L%d, %q, %q) = %s, want %s", level, lo, hi, g, w))
			}
			var wantBytes int64
			for _, f := range want {
				wantBytes += f.Size
			}
			if got := v.OverlapBytes(level, lo, hi); got != wantBytes {
				t.Fatalf("%s", what("OverlapBytes(L%d, %q, %q) = %d, want %d", level, lo, hi, got, wantBytes))
			}
		}

		p := &Picker{Opts: Options{
			L0Trigger: 4, L1MaxBytes: 1 << 20, Multiplier: 10,
			GroupBytes: []int64{0, 256 << 10, 4 << 20}[rng.Intn(3)],
			Settled:    true,
		}}
		if in.Len() > 0 {
			reserved++
		}
		for level := 1; level <= 3; level++ {
			want := refPickSettled(p, v, level, in)
			sameCompaction(t, what("pickSettled(L%d)", level), p.pickSettled(v, level, in), want)
			if want != nil && len(want.Settled) > 0 {
				promoted++
			}
			if want != nil && len(want.NextInputs) > 0 {
				rewrote++
				if len(want.CutPoints) > len(want.Settled) {
					skipped++
				}
			}
			var pointer keys.InternalKey
			if rng.Intn(3) != 0 {
				pointer = ik(userKey(rng.Intn(keySpace)))
			}
			sameCompaction(t, what("pickLeveled(L%d, %q)", level, pointer),
				p.pickLeveled(v, level, pointer, in), refPickLeveled(p, v, level, pointer, in))
		}

		if c := p.pickL0(v); len(c.Inputs) > 0 {
			smallest, largest := inputsRange(c)
			if g, w := fmt.Sprint(nums(c.NextInputs)), fmt.Sprint(nums(refOverlaps(v, 1, smallest, largest))); g != w {
				t.Fatalf("%s", what("pickL0 NextInputs = %s, want %s", g, w))
			}
		}
		for level := 0; level <= 3; level++ {
			files := v.Levels[level]
			if len(files) == 0 {
				continue
			}
			c := p.pickSeek(v, Env{SeekFile: files[rng.Intn(len(files))], SeekLevel: level, InFlight: in})
			if c == nil {
				continue // conflicting or quarantined: nothing to compare
			}
			smallest, largest := inputsRange(c)
			if g, w := fmt.Sprint(nums(c.NextInputs)), fmt.Sprint(nums(refOverlaps(v, level+1, smallest, largest))); g != w {
				t.Fatalf("%s", what("pickSeek(L%d) NextInputs = %s, want %s", level, g, w))
			}
		}

		// Whole picks: a runnable salvage first; else the reference choice
		// is the settled pick of the first over-threshold level (by score)
		// that survives the quarantine and conflict filters, exactly as
		// Pick orders them.
		want := p.PickSalvage(v, Env{InFlight: in})
		if want == nil {
			for _, level := range refLevelsByScore(p, v) {
				c := p.pickL0(v)
				if level > 0 {
					c = refPickSettled(p, v, level, in)
				}
				if c != nil && touchesQuarantined(v, c) {
					quarantineSkips++
				}
				if c != nil && !touchesQuarantined(v, c) && !in.Conflicts(c) {
					want = c
					break
				}
			}
		}
		sameCompaction(t, what("Pick"), p.Pick(v, Env{InFlight: in}), want)
		if want != nil && want.Reason != ReasonSalvage {
			wholePicks++
		}
	}
	t.Logf("%d seeds: %d settled picks promoted, %d rewrote (%d leaving next-level tables in place), %d seeds with reservations, %d picks skipped for quarantine, %d whole picks",
		seeds, promoted, rewrote, skipped, reserved, quarantineSkips, wholePicks)
	for name, n := range map[string]int{"promoting picks": promoted, "rewriting picks": rewrote,
		"skipping picks": skipped, "reserved seeds": reserved, "quarantine skips": quarantineSkips, "whole picks": wholePicks} {
		if n < seeds/100 {
			t.Errorf("only %d %s in %d seeds: the generator no longer covers them", n, name, seeds)
		}
	}
}

// TestFragmentedPicksMatchLinearReference: piled levels are not disjoint,
// so every overlap query there must take (and agree with) the linear scan.
func TestFragmentedPicksMatchLinearReference(t *testing.T) {
	for seed := 0; seed < 200; seed++ {
		rng := rand.New(rand.NewSource(int64(1_000_000 + seed)))
		v := randomVersion(t, rng, seed, true)
		in := randomInFlight(rng, v)
		keySpace := keySpaceOf(seed)
		for q := 0; q < 40; q++ {
			level := rng.Intn(manifest.NumLevels)
			lo, hi := randomRange(rng, keySpace)
			if g, w := fmt.Sprint(nums(v.Overlaps(level, lo, hi))), fmt.Sprint(nums(refOverlaps(v, level, lo, hi))); g != w {
				t.Fatalf("seed %d: Overlaps(L%d, %q, %q) = %s, want %s", seed, level, lo, hi, g, w)
			}
		}
		// The last-level pile merge is the fragmented picker's one overlap
		// query.
		p := &Picker{Opts: Options{L0Trigger: 4, L1MaxBytes: 1 << 20, Multiplier: 10, Fragmented: true}}
		for level := 1; level < manifest.NumLevels-1; level++ {
			c := p.pickFragmented(v, level, in)
			if c == nil || c.Level != manifest.NumLevels-2 {
				continue
			}
			smallest, largest := inputsRange(c)
			if g, w := fmt.Sprint(nums(c.NextInputs)), fmt.Sprint(nums(refOverlaps(v, c.OutputLevel, smallest, largest))); g != w {
				t.Fatalf("seed %d: pickFragmented(L%d) NextInputs = %s, want %s", seed, level, g, w)
			}
		}
	}
}
