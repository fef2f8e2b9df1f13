package compaction

import (
	"fmt"
	"testing"

	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/manifest"
)

func ik(u string) keys.InternalKey {
	return keys.MakeInternalKey(nil, []byte(u), 1, keys.KindSet)
}

func meta(num uint64, size int64, lo, hi string) *manifest.FileMeta {
	return &manifest.FileMeta{
		Num: num, PhysNum: num, Size: size,
		Smallest: ik(lo), Largest: ik(hi),
	}
}

func defaultOpts() Options {
	return Options{
		L0Trigger:  4,
		L1MaxBytes: 10 << 20,
		Multiplier: 10,
	}
}

func TestLevelMaxBytes(t *testing.T) {
	o := defaultOpts()
	if got := o.LevelMaxBytes(1); got != 10<<20 {
		t.Fatalf("L1 = %d", got)
	}
	if got := o.LevelMaxBytes(2); got != 100<<20 {
		t.Fatalf("L2 = %d", got)
	}
	if got := o.LevelMaxBytes(3); got != 1000<<20 {
		t.Fatalf("L3 = %d", got)
	}
}

func TestScoreAndTrigger(t *testing.T) {
	p := &Picker{Opts: defaultOpts()}
	var lv [manifest.NumLevels][]*manifest.FileMeta
	// Below thresholds: no compaction.
	lv[0] = []*manifest.FileMeta{meta(1, 1<<20, "a", "b")}
	if c := p.Pick(manifest.NewVersion(lv), Env{}); c != nil {
		t.Fatalf("premature compaction: %+v", c)
	}
	// L0 at trigger.
	for i := 2; i <= 4; i++ {
		lv[0] = append(lv[0], meta(uint64(i), 1<<20, "a", "b"))
	}
	c := p.Pick(manifest.NewVersion(lv), Env{})
	if c == nil || c.Level != 0 {
		t.Fatalf("expected L0 compaction, got %+v", c)
	}
	if len(c.Inputs) != 4 {
		t.Fatalf("L0 inputs = %d", len(c.Inputs))
	}
}

func TestL0IncludesL1Overlaps(t *testing.T) {
	p := &Picker{Opts: defaultOpts()}
	var lv [manifest.NumLevels][]*manifest.FileMeta
	for i := 1; i <= 4; i++ {
		lv[0] = append(lv[0], meta(uint64(i), 1<<20, "c", "m"))
	}
	lv[1] = []*manifest.FileMeta{
		meta(10, 1<<20, "a", "b"), // outside
		meta(11, 1<<20, "b", "d"), // overlaps
		meta(12, 1<<20, "k", "n"), // overlaps
		meta(13, 1<<20, "p", "z"), // outside
	}
	v := manifest.NewVersion(lv)
	c := p.Pick(v, Env{})
	if len(c.NextInputs) != 2 || c.NextInputs[0].Num != 11 || c.NextInputs[1].Num != 12 {
		t.Fatalf("next inputs: %+v", c.NextInputs)
	}
}

func overflowL1() *manifest.Version {
	var lv [manifest.NumLevels][]*manifest.FileMeta
	// 12 MB in L1 (limit 10 MB).
	for i := 0; i < 6; i++ {
		lo := fmt.Sprintf("k%02d", i*2)
		hi := fmt.Sprintf("k%02d", i*2+1)
		lv[1] = append(lv[1], meta(uint64(i+1), 2<<20, lo, hi))
	}
	return manifest.NewVersion(lv)
}

func TestClassicSingleVictim(t *testing.T) {
	p := &Picker{Opts: defaultOpts()}
	v := overflowL1()
	c := p.Pick(v, Env{})
	if c == nil || c.Level != 1 || len(c.Inputs) != 1 {
		t.Fatalf("classic pick: %+v", c)
	}
}

func TestClassicRoundRobinPointer(t *testing.T) {
	p := &Picker{Opts: defaultOpts()}
	v := overflowL1()
	// Pointer after file 3's largest ("k05"): next victim is file 4.
	ptr := ik("k05")
	c := p.Pick(v, Env{CompactPointer: func(level int) keys.InternalKey {
		if level == 1 {
			return ptr
		}
		return nil
	}})
	if len(c.Inputs) != 1 || c.Inputs[0].Num != 4 {
		t.Fatalf("round robin chose %d", c.Inputs[0].Num)
	}
	// Pointer past the end wraps to the first file.
	c = p.Pick(v, Env{CompactPointer: func(level int) keys.InternalKey { return ik("zzz") }})
	if len(c.Inputs) != 1 || c.Inputs[0].Num != 1 {
		t.Fatalf("wrap chose %d", c.Inputs[0].Num)
	}
}

func TestGroupCompactionBudget(t *testing.T) {
	o := defaultOpts()
	o.GroupBytes = 6 << 20 // three 2 MB victims
	p := &Picker{Opts: o}
	v := overflowL1()
	c := p.Pick(v, Env{})
	if len(c.Inputs) != 3 {
		t.Fatalf("group inputs = %d", len(c.Inputs))
	}
	// Inputs must be sorted by smallest key.
	for i := 1; i < len(c.Inputs); i++ {
		if keys.Compare(c.Inputs[i-1].Smallest, c.Inputs[i].Smallest) >= 0 {
			t.Fatal("group inputs unsorted")
		}
	}
}

func TestSettledSelectsMinOverlapAndPromotes(t *testing.T) {
	o := defaultOpts()
	o.GroupBytes = 4 << 20
	o.Settled = true
	p := &Picker{Opts: o}
	var lv [manifest.NumLevels][]*manifest.FileMeta
	// L1 overflowing: file 1 overlaps lots of L2, file 2 overlaps nothing,
	// file 3 overlaps a little.
	lv[1] = []*manifest.FileMeta{
		meta(1, 6<<20, "a", "c"),
		meta(2, 4<<20, "e", "f"),
		meta(3, 4<<20, "h", "k"),
	}
	lv[2] = []*manifest.FileMeta{
		meta(10, 8<<20, "a", "b"),
		meta(11, 8<<20, "b", "c"),
		meta(12, 2<<20, "h", "i"),
	}
	v := manifest.NewVersion(lv)
	c := p.Pick(v, Env{})
	if c == nil || c.Level != 1 {
		t.Fatalf("pick: %+v", c)
	}
	// File 2 (zero overlap) must be promoted, not rewritten.
	if len(c.Settled) != 1 || c.Settled[0].Num != 2 {
		t.Fatalf("settled: %+v", c.Settled)
	}
	// Budget of 4 MB is filled by file 2 alone.
	if len(c.Inputs) != 0 {
		t.Fatalf("inputs: %+v", c.Inputs)
	}
}

func TestSettledMixedPromotionAndRewrite(t *testing.T) {
	o := defaultOpts()
	o.GroupBytes = 8 << 20
	o.Settled = true
	p := &Picker{Opts: o}
	var lv [manifest.NumLevels][]*manifest.FileMeta
	lv[1] = []*manifest.FileMeta{
		meta(1, 4<<20, "a", "c"), // small overlap
		meta(2, 4<<20, "e", "f"), // no overlap -> settled
		meta(3, 4<<20, "h", "k"), // big overlap
	}
	lv[2] = []*manifest.FileMeta{
		meta(10, 1<<20, "b", "c"),
		meta(11, 20<<20, "h", "i"),
	}
	v := manifest.NewVersion(lv)
	c := p.Pick(v, Env{})
	if len(c.Settled) != 1 || c.Settled[0].Num != 2 {
		t.Fatalf("settled: %+v", c.Settled)
	}
	if len(c.Inputs) != 1 || c.Inputs[0].Num != 1 {
		t.Fatalf("inputs: %+v", c.Inputs)
	}
	if len(c.NextInputs) != 1 || c.NextInputs[0].Num != 10 {
		t.Fatalf("next inputs: %+v", c.NextInputs)
	}
	// Cut point at the promoted table's smallest key.
	if len(c.CutPoints) != 1 || string(c.CutPoints[0]) != "e" {
		t.Fatalf("cut points: %q", c.CutPoints)
	}
}

// TestPickSettledSkipsUntouchedNextTables: a settled pick merges each victim
// only with the next-level tables it overlaps. A next-level table inside the
// victims' span that overlaps no victim is left in place, and outputs are
// cut ahead of it; a run of such tables needs only the one cut.
func TestPickSettledSkipsUntouchedNextTables(t *testing.T) {
	o := defaultOpts()
	o.GroupBytes = 16 << 20
	o.Settled = true
	p := &Picker{Opts: o}
	for _, tc := range []struct {
		name string
		l2   []*manifest.FileMeta
	}{
		{"one table between the victims", []*manifest.FileMeta{
			meta(10, 1<<20, "15", "18"),
			meta(11, 1<<20, "30", "40"),
			meta(12, 1<<20, "65", "68"),
		}},
		{"a run of two", []*manifest.FileMeta{
			meta(10, 1<<20, "15", "18"),
			meta(11, 1<<20, "30", "40"),
			meta(13, 1<<20, "45", "50"),
			meta(12, 1<<20, "65", "68"),
		}},
	} {
		var lv [manifest.NumLevels][]*manifest.FileMeta
		lv[1] = []*manifest.FileMeta{
			meta(1, 6<<20, "10", "20"),
			meta(2, 6<<20, "60", "70"),
		}
		lv[2] = tc.l2
		c := p.Pick(manifest.NewVersion(lv), Env{})
		if c == nil || c.Level != 1 || c.Reason != ReasonSettled {
			t.Fatalf("%s: pick %+v, want a settled pick out of level 1", tc.name, c)
		}
		if g := fmt.Sprint(nums(c.Inputs)); g != "[1 2]" {
			t.Fatalf("%s: Inputs = %s, want [1 2]", tc.name, g)
		}
		if g := fmt.Sprint(nums(c.NextInputs)); g != "[10 12]" {
			t.Fatalf("%s: NextInputs = %s, want [10 12]: [30,40] overlaps no victim", tc.name, g)
		}
		if g := fmt.Sprintf("%q", c.CutPoints); g != `["30"]` {
			t.Fatalf("%s: CutPoints = %s, want [\"30\"]", tc.name, g)
		}
	}
}

func TestFragmentedPicksHeaviestPile(t *testing.T) {
	o := defaultOpts()
	o.Fragmented = true
	p := &Picker{Opts: o}
	var lv [manifest.NumLevels][]*manifest.FileMeta
	// L1 over limit with two overlapping piles: {1,2} spanning a..f and
	// {3,4,5} spanning m..r (heavier).
	lv[1] = []*manifest.FileMeta{
		meta(1, 2<<20, "a", "d"),
		meta(2, 2<<20, "c", "f"),
		meta(3, 3<<20, "m", "p"),
		meta(4, 3<<20, "n", "q"),
		meta(5, 3<<20, "o", "r"),
	}
	v := manifest.NewVersion(lv)
	c := p.Pick(v, Env{})
	if c == nil || c.Level != 1 {
		t.Fatalf("pick: %+v", c)
	}
	if len(c.Inputs) != 3 || c.Inputs[0].Num != 3 {
		t.Fatalf("inputs: %+v", c.Inputs)
	}
	// FLSM: the next level is not read.
	if len(c.NextInputs) != 0 {
		t.Fatalf("fragmented compaction read next level: %+v", c.NextInputs)
	}
}

func TestFragmentedLastLevelMerges(t *testing.T) {
	o := defaultOpts()
	o.Fragmented = true
	p := &Picker{Opts: o}
	var lv [manifest.NumLevels][]*manifest.FileMeta
	lvl := manifest.NumLevels - 2
	// Make the second-to-last level overflow.
	var pile []*manifest.FileMeta
	need := o.LevelMaxBytes(lvl)/(4<<20) + 2
	for i := int64(0); i < need; i++ {
		pile = append(pile, meta(uint64(100+i), 4<<20, "a", "z"))
	}
	lv[lvl] = pile
	lv[lvl+1] = []*manifest.FileMeta{meta(999, 4<<20, "m", "q")}
	v := manifest.NewVersion(lv)
	c := p.Pick(v, Env{})
	if c == nil || c.Level != lvl {
		t.Fatalf("pick: %+v", c)
	}
	if len(c.NextInputs) != 1 || c.NextInputs[0].Num != 999 {
		t.Fatalf("last-level merge must include overlaps: %+v", c.NextInputs)
	}
}

func TestIsGuardDensityIncreasesWithDepth(t *testing.T) {
	o := Options{GuardBaseBits: 14, GuardShiftBits: 3}
	counts := make([]int, 7)
	for i := 0; i < 200000; i++ {
		key := []byte(fmt.Sprintf("user%012d", i))
		for level := 1; level <= 6; level++ {
			if o.IsGuard(key, level) {
				counts[level]++
			}
		}
	}
	for level := 2; level <= 6; level++ {
		if counts[level] <= counts[level-1] {
			t.Fatalf("guard density should grow with depth: %v", counts)
		}
	}
	// Guard membership must be monotone: a guard at level L is a guard at
	// all deeper levels (trailing-zeros threshold decreases).
	for i := 0; i < 10000; i++ {
		key := []byte(fmt.Sprintf("user%012d", i))
		was := false
		for level := 1; level <= 6; level++ {
			is := o.IsGuard(key, level)
			if was && !is {
				t.Fatalf("guard monotonicity violated for %s", key)
			}
			was = is
		}
	}
}

func TestCompactionRangeAndBytes(t *testing.T) {
	c := &Compaction{
		Inputs:     []*manifest.FileMeta{meta(1, 100, "d", "f")},
		NextInputs: []*manifest.FileMeta{meta(2, 50, "a", "e"), meta(3, 25, "f", "k")},
	}
	lo, hi := c.Range()
	if string(lo) != "a" || string(hi) != "k" {
		t.Fatalf("range = %q..%q", lo, hi)
	}
	if c.InputBytes() != 175 {
		t.Fatalf("bytes = %d", c.InputBytes())
	}
}
