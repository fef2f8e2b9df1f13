package manifest

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// searchRun is the table search RunTable replaced: a binary search over
// the run's FileMetas by largest user key. RunTable must agree with it.
func searchRun(run []*FileMeta, key []byte) *FileMeta {
	idx := sort.Search(len(run), func(i int) bool {
		return keys.CompareUser(run[i].Largest.UserKey(), key) >= 0
	})
	if idx >= len(run) || keys.CompareUser(run[idx].Smallest.UserKey(), key) > 0 {
		return nil
	}
	return run[idx]
}

// checkRunTables compares RunTable with searchRun on every run of level
// for every probe key.
func checkRunTables(t *testing.T, v *Version, level int, probes [][]byte) {
	t.Helper()
	if len(v.fences[level]) != len(v.Runs(level)) {
		t.Fatalf("level %d: %d runs, %d run fences", level, len(v.Runs(level)), len(v.fences[level]))
	}
	for r, run := range v.Runs(level) {
		for _, key := range probes {
			if got, want := v.RunTable(level, r, key), searchRun(run, key); got != want {
				t.Fatalf("level %d run %d key %q: RunTable = %v, sort.Search = %v", level, r, key, tableNum(got), tableNum(want))
			}
		}
	}
}

func tableNum(f *FileMeta) any {
	if f == nil {
		return nil
	}
	return f.Num
}

// randomRun returns n tables of physical file phys with disjoint, ordered
// user-key ranges drawn from two-letter keys, numbered from num.
func randomRun(rng *rand.Rand, num, phys uint64, n int) []*FileMeta {
	bounds := make(map[string]bool)
	for len(bounds) < 2*n {
		bounds[fmt.Sprintf("%c%c", 'b'+rng.Intn(20), 'a'+rng.Intn(26))] = true
	}
	sorted := make([]string, 0, len(bounds))
	for k := range bounds {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	run := make([]*FileMeta, n)
	for i := range run {
		lo, hi := sorted[2*i], sorted[2*i+1]
		if rng.Intn(4) == 0 {
			hi = lo // a one-key table: smallest and largest are equal
		}
		run[i] = meta(num+uint64(i), phys, int64(i)*10, 10, lo, hi)
	}
	return run
}

// probeKeys returns every table bound of the level and the keys just
// before and after each, plus keys before the first and after the last
// table of any run.
func probeKeys(files []*FileMeta) [][]byte {
	probes := [][]byte{nil, []byte(""), []byte("a"), []byte("zzz")}
	for _, f := range files {
		for _, k := range [][]byte{f.Smallest.UserKey(), f.Largest.UserKey()} {
			probes = append(probes, k, append(k[:len(k):len(k)], 0))
			if last := len(k) - 1; last >= 0 && k[last] > 0 {
				before := append([]byte(nil), k...)
				before[last]--
				probes = append(probes, before)
			}
		}
	}
	return probes
}

// TestRunTableMatchesSortSearch is the differential test of the run
// fences: on random levels — an empty one, one sorted run below level 0
// and several multi-table runs at level 0 — RunTable picks the same table
// as the binary search over FileMetas it replaced, for keys before the
// first table, after the last, between tables and equal to either bound.
func TestRunTableMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		var lv [NumLevels][]*FileMeta
		num := uint64(1)
		// Level 0: up to four flushes, newest (highest number) first.
		for runs := rng.Intn(5); runs > 0; runs-- {
			run := randomRun(rng, num, num, 1+rng.Intn(6))
			num += uint64(len(run))
			lv[0] = append(run, lv[0]...)
		}
		sort.Slice(lv[0], func(i, j int) bool { return lv[0][i].Num > lv[0][j].Num })
		// Level 1 stays empty; level 2 is one sorted run across files.
		for _, f := range randomRun(rng, num, 0, 1+rng.Intn(12)) {
			f.PhysNum = f.Num
			lv[2] = append(lv[2], f)
		}
		v := NewVersion(lv)
		if err := v.CheckRuns(); err != nil {
			t.Fatal(err)
		}
		if len(v.Runs(1)) != 0 || len(v.fences[1]) != 0 {
			t.Fatalf("empty level 1 has %d runs and %d run fences", len(v.Runs(1)), len(v.fences[1]))
		}
		if len(v.Runs(2)) != 1 {
			t.Fatalf("level 2 is %d runs, want 1", len(v.Runs(2)))
		}
		for _, level := range []int{0, 1, 2} {
			checkRunTables(t, v, level, probeKeys(lv[level]))
		}
	}
}

// TestRunFencesSharedWithUntouchedLevels builds versions through the
// builder, where a level no edit touches is shared with the base: its
// fences must be shared with it too, or a lookup there indexes fences
// that were never built.
func TestRunFencesSharedWithUntouchedLevels(t *testing.T) {
	vs, err := Create(vfs.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer vs.Close()
	apply := func(build func(e *VersionEdit)) *Version {
		t.Helper()
		e := &VersionEdit{}
		build(e)
		if err := vs.LogAndApply(e); err != nil {
			t.Fatal(err)
		}
		v := vs.Current()
		if err := v.CheckRuns(); err != nil {
			t.Fatal(err)
		}
		return v
	}
	base := apply(func(e *VersionEdit) {
		e.AddFile(0, meta(11, 10, 0, 10, "a", "f"))
		e.AddFile(0, meta(12, 10, 10, 10, "g", "p"))
		e.AddFile(2, meta(21, 21, 0, 10, "b", "d"))
		e.AddFile(2, meta(22, 22, 0, 10, "k", "m"))
	})
	v := apply(func(e *VersionEdit) { e.AddFile(1, meta(30, 30, 0, 10, "c", "h")) })
	for _, level := range []int{0, 2} {
		if &v.fences[level][0] != &base.fences[level][0] {
			t.Errorf("untouched level %d: run fences rebuilt instead of shared", level)
		}
	}
	probes := [][]byte{[]byte("a"), []byte("c"), []byte("f"), []byte("h"), []byte("l"), []byte("z")}
	for level := 0; level < NumLevels; level++ {
		checkRunTables(t, v, level, probes)
	}
	if f := v.RunTable(2, 0, []byte("l")); f == nil || f.Num != 22 {
		t.Fatalf("RunTable(2, 0, l) = %v, want table 22", tableNum(f))
	}
	if f := v.RunTable(1, 0, []byte("h")); f == nil || f.Num != 30 {
		t.Fatalf("RunTable(1, 0, h) = %v, want table 30", tableNum(f))
	}
}
