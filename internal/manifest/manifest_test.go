package manifest

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

func ik(u string, seq uint64) keys.InternalKey {
	return keys.MakeInternalKey(nil, []byte(u), keys.Seq(seq), keys.KindSet)
}

func meta(num, phys uint64, off, size int64, lo, hi string) *FileMeta {
	return &FileMeta{
		Num: num, PhysNum: phys, Offset: off, Size: size,
		Smallest: ik(lo, 1), Largest: ik(hi, 1),
	}
}

func TestParseFileName(t *testing.T) {
	cases := []struct {
		name string
		kind FileKind
		num  uint64
		ok   bool
	}{
		{"000001.sst", KindTable, 1, true},
		{"123456.log", KindLog, 123456, true},
		{"MANIFEST-000007", KindManifest, 7, true},
		{"CURRENT", KindCurrent, 0, true},
		{"000009.tmp", KindTemp, 9, true},
		{"garbage", KindUnknown, 0, false},
		{"x.sst", KindUnknown, 0, false},
		{"MANIFEST-xyz", KindUnknown, 0, false},
		{"000001.xyz", KindUnknown, 0, false},
	}
	for _, c := range cases {
		kind, num, ok := ParseFileName(c.name)
		if kind != c.kind || num != c.num || ok != c.ok {
			t.Errorf("ParseFileName(%q) = (%v,%d,%v), want (%v,%d,%v)",
				c.name, kind, num, ok, c.kind, c.num, c.ok)
		}
	}
	// Round trips.
	for _, num := range []uint64{1, 42, 999999} {
		if k, n, ok := ParseFileName(TableFileName(num)); k != KindTable || n != num || !ok {
			t.Errorf("table name roundtrip failed for %d", num)
		}
		if k, n, ok := ParseFileName(LogFileName(num)); k != KindLog || n != num || !ok {
			t.Errorf("log name roundtrip failed for %d", num)
		}
		if k, n, ok := ParseFileName(ManifestFileName(num)); k != KindManifest || n != num || !ok {
			t.Errorf("manifest name roundtrip failed for %d", num)
		}
	}
}

func TestEditEncodeDecode(t *testing.T) {
	e := &VersionEdit{}
	e.SetLogNum(7)
	e.SetNextFileNum(100)
	e.SetLastSeq(424242)
	e.CompactPointers = append(e.CompactPointers, CompactPointer{Level: 2, Key: ik("cursor", 5)})
	e.DeleteFile(1, 33)
	e.DeleteFile(2, 44)
	m := meta(55, 50, 1<<20, 2<<20, "aaa", "zzz")
	m.Guard = []byte("guard-key")
	e.AddFile(3, m)

	d, err := DecodeEdit(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *d.LogNum != 7 || *d.NextFileNum != 100 || *d.LastSeq != 424242 {
		t.Fatalf("scalars: %v %v %v", *d.LogNum, *d.NextFileNum, *d.LastSeq)
	}
	if len(d.CompactPointers) != 1 || d.CompactPointers[0].Level != 2 {
		t.Fatalf("compact pointers: %+v", d.CompactPointers)
	}
	if len(d.Deleted) != 2 || d.Deleted[1].Num != 44 {
		t.Fatalf("deleted: %+v", d.Deleted)
	}
	if len(d.Added) != 1 {
		t.Fatalf("added: %+v", d.Added)
	}
	got := d.Added[0].Meta
	if got.Num != 55 || got.PhysNum != 50 || got.Offset != 1<<20 || got.Size != 2<<20 {
		t.Fatalf("added meta: %+v", got)
	}
	if string(got.Smallest.UserKey()) != "aaa" || string(got.Largest.UserKey()) != "zzz" {
		t.Fatalf("bounds: %v %v", got.Smallest, got.Largest)
	}
	if string(got.Guard) != "guard-key" {
		t.Fatalf("guard: %q", got.Guard)
	}
}

func TestEditDecodeCorrupt(t *testing.T) {
	if _, err := DecodeEdit([]byte{200}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown tag: %v", err)
	}
	e := &VersionEdit{}
	e.AddFile(1, meta(1, 1, 0, 10, "a", "b"))
	enc := e.Encode()
	if _, err := DecodeEdit(enc[:len(enc)-3]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated edit: %v", err)
	}
}

func TestEditRoundTripProperty(t *testing.T) {
	f := func(nums []uint64, levels []uint8, lo, hi string) bool {
		e := &VersionEdit{}
		for i, n := range nums {
			lvl := 0
			if i < len(levels) {
				lvl = int(levels[i]) % NumLevels
			}
			if n%2 == 0 {
				e.DeleteFile(lvl, n)
			} else {
				e.AddFile(lvl, meta(n, n/2, int64(n%1000), int64(n%5000), lo, lo+hi))
			}
		}
		d, err := DecodeEdit(e.Encode())
		if err != nil {
			return false
		}
		return len(d.Added) == len(e.Added) && len(d.Deleted) == len(e.Deleted)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCreateAndRecoverEmpty(t *testing.T) {
	fs := vfs.NewMem()
	vs, err := Create(fs)
	if err != nil {
		t.Fatal(err)
	}
	if vs.Current().NumFiles() != 0 {
		t.Fatal("fresh DB has files")
	}
	vs.Close()

	vs2, err := Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer vs2.Close()
	if vs2.Current().NumFiles() != 0 {
		t.Fatal("recovered DB has files")
	}
}

func TestLogAndApplyPersists(t *testing.T) {
	fs := vfs.NewMem()
	vs, err := Create(fs)
	if err != nil {
		t.Fatal(err)
	}
	edit := &VersionEdit{}
	edit.AddFile(0, meta(10, 10, 0, 1000, "a", "m"))
	edit.AddFile(1, meta(11, 11, 0, 2000, "b", "k"))
	vs.SetLastSeq(500)
	if err := vs.LogAndApply(edit); err != nil {
		t.Fatal(err)
	}
	edit2 := &VersionEdit{}
	edit2.DeleteFile(0, 10)
	edit2.AddFile(1, meta(12, 12, 0, 3000, "n", "z"))
	if err := vs.LogAndApply(edit2); err != nil {
		t.Fatal(err)
	}
	vs.Close()

	vs2, err := Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer vs2.Close()
	v := vs2.Current()
	if len(v.Levels[0]) != 0 {
		t.Fatalf("L0 = %v", v.Levels[0])
	}
	if len(v.Levels[1]) != 2 {
		t.Fatalf("L1 has %d files", len(v.Levels[1]))
	}
	// Sorted by smallest key: 11 ("b") then 12 ("n").
	if v.Levels[1][0].Num != 11 || v.Levels[1][1].Num != 12 {
		t.Fatalf("L1 order: %d, %d", v.Levels[1][0].Num, v.Levels[1][1].Num)
	}
	if vs2.LastSeq() != 500 {
		t.Fatalf("LastSeq = %d", vs2.LastSeq())
	}
	if err := v.SortedTables(1); err != nil {
		t.Fatal(err)
	}
}

func TestLogicalTablesPersistOffsets(t *testing.T) {
	// Three logical SSTables in one physical file — BoLT's layout must
	// survive recovery bit-exactly.
	fs := vfs.NewMem()
	vs, _ := Create(fs)
	edit := &VersionEdit{}
	edit.AddFile(1, meta(20, 7, 0, 1<<20, "a", "f"))
	edit.AddFile(1, meta(21, 7, 1<<20, 1<<20, "g", "p"))
	edit.AddFile(1, meta(22, 7, 2<<20, 1<<20, "q", "z"))
	if err := vs.LogAndApply(edit); err != nil {
		t.Fatal(err)
	}
	vs.Close()

	vs2, err := Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer vs2.Close()
	files := vs2.Current().Levels[1]
	if len(files) != 3 {
		t.Fatalf("%d files", len(files))
	}
	for i, f := range files {
		if f.PhysNum != 7 || f.Offset != int64(i)<<20 {
			t.Fatalf("file %d: phys=%d off=%d", i, f.PhysNum, f.Offset)
		}
	}
}

func TestCrashBeforeManifestSyncLosesEdit(t *testing.T) {
	fs := vfs.NewMem()
	vs, _ := Create(fs)
	edit := &VersionEdit{}
	edit.AddFile(0, meta(10, 10, 0, 1000, "a", "m"))
	if err := vs.LogAndApply(edit); err != nil {
		t.Fatal(err)
	}
	// LogAndApply synced; a crash now must preserve the edit.
	vs2, err := Recover(fs.CrashClone())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(vs2.Current().Levels[0]); got != 1 {
		t.Fatalf("durable edit lost: L0=%d", got)
	}
	vs2.Close()
	vs.Close()
}

func TestRecoverMissingCurrent(t *testing.T) {
	fs := vfs.NewMem()
	if _, err := Recover(fs); err == nil {
		t.Fatal("recover on empty dir should fail")
	}
}

func TestVersionOverlaps(t *testing.T) {
	var lv [NumLevels][]*FileMeta
	lv[1] = []*FileMeta{
		meta(1, 1, 0, 10, "b", "d"),
		meta(2, 2, 0, 10, "f", "h"),
		meta(3, 3, 0, 10, "k", "m"),
	}
	v := NewVersion(lv)
	got := v.Overlaps(1, []byte("c"), []byte("g"))
	if len(got) != 2 || got[0].Num != 1 || got[1].Num != 2 {
		t.Fatalf("overlaps = %v", got)
	}
	if got := v.Overlaps(1, nil, nil); len(got) != 3 {
		t.Fatalf("unbounded overlaps = %d", len(got))
	}
	if got := v.Overlaps(1, []byte("i"), []byte("j")); len(got) != 0 {
		t.Fatalf("gap overlaps = %v", got)
	}
	// Boundary inclusivity.
	if got := v.Overlaps(1, []byte("d"), []byte("d")); len(got) != 1 {
		t.Fatalf("edge overlap = %v", got)
	}
}

// TestOldestLiveIDTracksPinnedVersions is the contract obsolete-file
// collection relies on: a table deleted by the edit producing version n
// stays protected exactly while some version older than n is pinned.
func TestOldestLiveIDTracksPinnedVersions(t *testing.T) {
	fs := vfs.NewMem()
	vs, _ := Create(fs)
	defer vs.Close()
	edit := &VersionEdit{}
	edit.AddFile(0, meta(10, 10, 0, 100, "a", "b"))
	vs.LogAndApply(edit)

	// Pin the version that contains table 10 (as an iterator would).
	pinned := vs.Current()
	pinned.Ref()

	edit2 := &VersionEdit{}
	edit2.DeleteFile(0, 10)
	edit2.AddFile(0, meta(11, 11, 0, 100, "a", "b"))
	vs.LogAndApply(edit2)
	deletedIn := vs.Current().ID()
	if deletedIn <= pinned.ID() {
		t.Fatalf("version ids not increasing: %d after %d", deletedIn, pinned.ID())
	}

	if got := vs.OldestLiveID(); got != pinned.ID() {
		t.Fatalf("oldest live id = %d, want pinned version %d", got, pinned.ID())
	}
	pinned.Unref()
	if got := vs.OldestLiveID(); got != deletedIn {
		t.Fatalf("oldest live id after unpin = %d, want current version %d", got, deletedIn)
	}
}

// TestGarbageDeltaDoesNotResurrectDeletedSegment: a compaction's garbage
// tally can commit after the GC pass that deleted its segment. The record
// must not bring the segment back as a size-0 ghost, in the live version
// or on recovery.
func TestGarbageDeltaDoesNotResurrectDeletedSegment(t *testing.T) {
	fs := vfs.NewMem()
	vs, err := Create(fs)
	if err != nil {
		t.Fatal(err)
	}
	steps := []func(*VersionEdit){
		func(e *VersionEdit) { e.AddVLogSegment(VLogSegmentEdit{Num: 7, Size: 4096}) },
		func(e *VersionEdit) { e.DeleteVLogSegment(7) },
		func(e *VersionEdit) { e.AddVLogSegment(VLogSegmentEdit{Num: 7, GarbageDelta: 100}) },
	}
	for i, step := range steps {
		edit := &VersionEdit{}
		step(edit)
		if err := vs.LogAndApply(edit); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if s, ok := vs.Current().VLogSegment(7); ok {
		t.Fatalf("deleted segment 7 resurrected: %+v", s)
	}
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
	vs, err = Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer vs.Close()
	if s, ok := vs.Current().VLogSegment(7); ok {
		t.Fatalf("deleted segment 7 resurrected on recovery: %+v", s)
	}
}

func TestManifestRotation(t *testing.T) {
	fs := vfs.NewMem()
	vs, _ := Create(fs)
	// Push enough edits to exceed the rotation threshold.
	for i := 0; i < 200; i++ {
		edit := &VersionEdit{}
		m := meta(uint64(100+i), uint64(100+i), 0, 1000, "a", "z")
		// Pad bounds to grow the manifest quickly.
		m.Smallest = ik(fmt.Sprintf("key-%01000d", i), 1)
		m.Largest = ik(fmt.Sprintf("key-%01000d", i+1), 1)
		edit.AddFile(2, m)
		if i > 0 {
			edit.DeleteFile(2, uint64(100+i-1))
		}
		if err := vs.LogAndApply(edit); err != nil {
			t.Fatal(err)
		}
	}
	vs.Close()
	vs2, err := Recover(fs)
	if err != nil {
		t.Fatalf("recover after rotation: %v", err)
	}
	defer vs2.Close()
	if n := len(vs2.Current().Levels[2]); n != 1 {
		t.Fatalf("L2 = %d files", n)
	}
	// Old manifests should not accumulate.
	names, _ := fs.List()
	manifests := 0
	for _, n := range names {
		if k, _, _ := ParseFileName(n); k == KindManifest {
			manifests++
		}
	}
	if manifests > 2 {
		t.Fatalf("%d manifests on disk", manifests)
	}
}

func TestFileNumAllocatorSurvivesRecovery(t *testing.T) {
	fs := vfs.NewMem()
	vs, _ := Create(fs)
	var last uint64
	for i := 0; i < 10; i++ {
		last = vs.NextFileNum()
	}
	edit := &VersionEdit{}
	edit.AddFile(0, meta(last, last, 0, 10, "a", "b"))
	vs.LogAndApply(edit)
	vs.Close()

	vs2, _ := Recover(fs)
	defer vs2.Close()
	if next := vs2.NextFileNum(); next <= last {
		t.Fatalf("allocator went backwards: %d <= %d", next, last)
	}
}

func TestSettledPromotionEdit(t *testing.T) {
	// BoLT promotes a table by deleting it at level L and adding the same
	// number at L+1 in one edit; the builder must honor both.
	fs := vfs.NewMem()
	vs, _ := Create(fs)
	defer vs.Close()
	edit := &VersionEdit{}
	edit.AddFile(1, meta(42, 42, 0, 100, "a", "b"))
	if err := vs.LogAndApply(edit); err != nil {
		t.Fatal(err)
	}
	promote := &VersionEdit{}
	promote.DeleteFile(1, 42)
	promote.AddFile(2, meta(42, 42, 0, 100, "a", "b"))
	if err := vs.LogAndApply(promote); err != nil {
		t.Fatal(err)
	}
	v := vs.Current()
	if len(v.Levels[1]) != 0 || len(v.Levels[2]) != 1 || v.Levels[2][0].Num != 42 {
		t.Fatalf("promotion failed:\n%s", v.DebugString())
	}
	// And it must survive recovery.
	vs.Close()
	vs2, err := Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer vs2.Close()
	v2 := vs2.Current()
	if len(v2.Levels[1]) != 0 || len(v2.Levels[2]) != 1 || v2.Levels[2][0].Num != 42 {
		t.Fatalf("promotion lost in recovery:\n%s", v2.DebugString())
	}
}

// TestDisjointLevelsOnly: the binary-search overlap query is taken exactly
// on levels whose tables are ordered and pairwise disjoint — never on level
// 0, never on a level with a pile (fragmented profiles), not even when two
// tables merely share one boundary key.
func TestDisjointLevelsOnly(t *testing.T) {
	var lv [NumLevels][]*FileMeta
	lv[0] = []*FileMeta{meta(9, 9, 0, 10, "a", "b"), meta(8, 8, 0, 10, "c", "d")} // disjoint, but level 0
	lv[1] = []*FileMeta{meta(1, 1, 0, 10, "b", "d"), meta(2, 2, 0, 10, "f", "h"), meta(3, 3, 0, 10, "k", "m")}
	lv[2] = []*FileMeta{meta(4, 4, 0, 10, "a", "f"), meta(5, 5, 0, 10, "c", "d"), meta(6, 6, 0, 10, "x", "z")} // a pile
	lv[3] = []*FileMeta{meta(7, 7, 0, 10, "a", "c"), meta(10, 10, 0, 10, "c", "e")}                            // share "c"
	v := NewVersion(lv)
	if want := [NumLevels]bool{1: true, 4: true, 5: true, 6: true}; v.disjoint != want {
		t.Fatalf("disjoint = %v, want %v", v.disjoint, want)
	}
	// The pile's inner table is found although its neighbours' bounds would
	// mislead a binary search.
	if got := v.Overlaps(2, []byte("e"), []byte("e")); len(got) != 1 || got[0].Num != 4 {
		t.Fatalf("pile overlaps = %v", got)
	}
	if got := v.Overlaps(3, []byte("c"), []byte("c")); len(got) != 2 {
		t.Fatalf("boundary-sharing overlaps = %v", got)
	}
	if got := v.OverlapBytes(1, []byte("c"), []byte("g")); got != 20 {
		t.Fatalf("overlap bytes = %d, want 20", got)
	}
}

// TestBuilderMaintainsDerivedLevelState: over a chain of edits the per-level
// byte totals and disjointness flags always equal what a fresh scan of the
// level gives, and a level no edit touched is shared with its base.
func TestBuilderMaintainsDerivedLevelState(t *testing.T) {
	vs, err := Create(vfs.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer vs.Close()
	check := func(step string) {
		t.Helper()
		v := vs.Current()
		for level, files := range v.Levels {
			var total int64
			for _, f := range files {
				total += f.Size
			}
			if got := v.LevelBytes(level); got != total {
				t.Fatalf("%s: LevelBytes(%d) = %d, want %d", step, level, got, total)
			}
			if want := level > 0 && v.SortedTables(level) == nil; v.disjoint[level] != want {
				t.Fatalf("%s: disjoint[%d] = %v, want %v", step, level, v.disjoint[level], want)
			}
		}
	}
	apply := func(step string, build func(e *VersionEdit)) {
		t.Helper()
		e := &VersionEdit{}
		build(e)
		if err := vs.LogAndApply(e); err != nil {
			t.Fatal(err)
		}
		check(step)
	}
	apply("sorted levels", func(e *VersionEdit) {
		e.AddFile(1, meta(1, 1, 0, 100, "a", "c"))
		e.AddFile(1, meta(2, 2, 0, 200, "e", "g"))
		e.AddFile(2, meta(3, 3, 0, 300, "a", "z"))
	})
	l2 := vs.Current().Levels[2]
	apply("overlapping add", func(e *VersionEdit) { e.AddFile(1, meta(4, 4, 0, 50, "b", "f")) })
	if vs.Current().disjoint[1] {
		t.Fatal("level 1 still marked disjoint after an overlapping add")
	}
	if &vs.Current().Levels[2][0] != &l2[0] {
		t.Fatal("untouched level 2 was rebuilt instead of shared")
	}
	apply("overlap removed", func(e *VersionEdit) { e.DeleteFile(1, 4) })
	if !vs.Current().disjoint[1] {
		t.Fatal("level 1 not marked disjoint again after the overlapping table left")
	}
	apply("promotion", func(e *VersionEdit) {
		// Settled promotion: same table, next level.
		e.DeleteFile(1, 2)
		e.AddFile(3, vs.Current().Levels[1][1])
	})
	apply("level emptied", func(e *VersionEdit) { e.DeleteFile(2, 3) })
}

// runNums renders runs as table numbers, for comparison.
func runNums(runs [][]*FileMeta) string {
	var b strings.Builder
	for _, run := range runs {
		b.WriteByte('[')
		for i, f := range run {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprint(&b, f.Num)
		}
		b.WriteByte(']')
	}
	return b.String()
}

// TestSortedRuns: tables sharing a physical file form one run in key order,
// newest file first; a file whose tables overlap falls back to one run per
// table; a run that lost tables stays a run; one-file-per-table layouts
// are single-table runs.
func TestSortedRuns(t *testing.T) {
	var lv [NumLevels][]*FileMeta
	lv[0] = []*FileMeta{
		// phys 40: a later flush, allocated out of key order on purpose.
		meta(43, 40, 200, 10, "m", "p"), meta(42, 40, 100, 10, "e", "h"), meta(41, 40, 0, 10, "a", "c"),
		// phys 30: tables overlap each other ("c".."f" twice).
		meta(32, 30, 100, 10, "d", "k"), meta(31, 30, 0, 10, "a", "f"),
		// phys 20: an older flush that lost its middle table to a compaction.
		meta(23, 20, 200, 10, "s", "z"), meta(21, 20, 0, 10, "a", "b"),
		// legacy: the table is its own file.
		meta(10, 10, 0, 10, "a", "z"),
	}
	v := NewVersion(lv)
	if got, want := runNums(v.L0Runs()), "[41 42 43][32][31][21 23][10]"; got != want {
		t.Fatalf("runs = %s, want %s", got, want)
	}
	if got := v.L0PhysFiles(); got != 4 {
		t.Fatalf("L0PhysFiles = %d, want 4", got)
	}
	if err := v.CheckL0Runs(); err != nil {
		t.Fatal(err)
	}
	// Tables that merely share a boundary user key are not disjoint.
	runs, phys := SortedRuns([]*FileMeta{meta(2, 1, 10, 10, "c", "e"), meta(1, 1, 0, 10, "a", "c")})
	if runNums(runs) != "[2][1]" || phys != 1 {
		t.Fatalf("boundary-sharing group: runs %s, %d files", runNums(runs), phys)
	}
	if runs, phys := SortedRuns(nil); runs != nil || phys != 0 {
		t.Fatalf("empty level: runs %v, %d files", runs, phys)
	}
	// The listing names each run.
	if got := v.DebugString(); !strings.Contains(got, "L0 run 1/5: 41(") || !strings.Contains(got, "L0 run 4/5: 21(") {
		t.Fatalf("DebugString does not list level 0 by run:\n%s", got)
	}
	// A tampered derivation is caught.
	v.l0Runs = v.l0Runs[1:]
	if err := v.CheckL0Runs(); err == nil {
		t.Fatal("CheckL0Runs accepted runs that do not cover level 0")
	}
}

// TestBuilderDerivesL0Runs: the builder regroups level 0 whenever an edit
// touches it and shares the runs with the base when none does; nothing
// about runs is written to the MANIFEST, so recovery derives them again.
func TestBuilderDerivesL0Runs(t *testing.T) {
	fs := vfs.NewMem()
	vs, err := Create(fs)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(build func(e *VersionEdit)) *Version {
		t.Helper()
		e := &VersionEdit{}
		build(e)
		if err := vs.LogAndApply(e); err != nil {
			t.Fatal(err)
		}
		v := vs.Current()
		if err := v.CheckL0Runs(); err != nil {
			t.Fatal(err)
		}
		return v
	}
	v := apply(func(e *VersionEdit) { // one flush
		e.AddFile(0, meta(11, 10, 0, 10, "a", "f"))
		e.AddFile(0, meta(12, 10, 10, 10, "g", "p"))
	})
	if got := runNums(v.L0Runs()); got != "[11 12]" || v.L0PhysFiles() != 1 {
		t.Fatalf("after one flush: runs %s, %d files", got, v.L0PhysFiles())
	}
	v = apply(func(e *VersionEdit) { // a second flush
		e.AddFile(0, meta(21, 20, 0, 10, "b", "c"))
		e.AddFile(0, meta(22, 20, 10, 10, "d", "z"))
	})
	if got := runNums(v.L0Runs()); got != "[21 22][11 12]" || v.L0PhysFiles() != 2 {
		t.Fatalf("after two flushes: runs %s, %d files", got, v.L0PhysFiles())
	}
	runs := v.L0Runs()
	v = apply(func(e *VersionEdit) { e.AddFile(1, meta(30, 30, 0, 10, "a", "z")) })
	if got := v.L0Runs(); &got[0] != &runs[0] {
		t.Fatal("untouched level 0: runs were rebuilt instead of shared")
	}
	v = apply(func(e *VersionEdit) { e.DeleteFile(0, 11) }) // part of a run compacted away
	if got := runNums(v.L0Runs()); got != "[21 22][12]" || v.L0PhysFiles() != 2 {
		t.Fatalf("after a partial compaction: runs %s, %d files", got, v.L0PhysFiles())
	}
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
	vs2, err := Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer vs2.Close()
	if got := runNums(vs2.Current().L0Runs()); got != "[21 22][12]" {
		t.Fatalf("recovered runs %s", got)
	}
}
