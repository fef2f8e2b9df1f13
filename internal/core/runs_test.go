package core

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/bolt-lsm/bolt/internal/cache"
	"github.com/bolt-lsm/bolt/internal/compaction"
	"github.com/bolt-lsm/bolt/internal/iterator"
	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/memtable"
	"github.com/bolt-lsm/bolt/internal/sstable"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// The linear reference the run-based read path is held to: every table is
// its own source, every table whose range covers a key is consulted. It is
// what the engine did before level 0 was read as sorted runs, and it lives
// only here.

// refTableIter is one whole table as a merge source, holding its
// table-cache reference until closed.
type refTableIter struct {
	*sstable.Iter
	h cache.Handle
}

func (r *refTableIter) Close() error {
	err := r.Iter.Close()
	r.h.Release()
	return err
}

// refSources opens one source per table of v. With honourQuarantine a
// quarantined table is a source that fails on every positioning, as the
// old read path's was; without it the table's (physically intact) entries
// are read, which gives the sequence a walk would see were nothing
// quarantined.
func refSources(t *testing.T, db *DB, v *manifest.Version, honourQuarantine bool) []iterator.Iterator {
	t.Helper()
	var sources []iterator.Iterator
	for level, files := range v.Levels {
		for _, f := range files {
			if honourQuarantine && v.IsQuarantined(f.Num) {
				sources = append(sources, &iterator.Empty{ErrValue: rangeCorruptError(level, f, nil)})
				continue
			}
			h, err := db.tableCache.Acquire(f)
			if err != nil {
				t.Fatal(err)
			}
			sources = append(sources, &refTableIter{h.Reader.NewIter(sstable.IterOpts{}), h})
		}
	}
	return sources
}

// refGet is the linear lookup: level by level, every table whose range
// covers the key, newest entry by sequence number within a level.
func refGet(db *DB, v *manifest.Version, ikey keys.InternalKey) ([]byte, keys.Kind, bool, error) {
	key := ikey.UserKey()
	for level, files := range v.Levels {
		var best newest
		for _, f := range files {
			if !f.OverlapsUser(key, key) {
				continue
			}
			if v.IsQuarantined(f.Num) {
				return nil, 0, false, rangeCorruptError(level, f, nil)
			}
			h, err := db.tableCache.Acquire(f)
			if err != nil {
				return nil, 0, false, err
			}
			value, seq, kind, found, err := h.Reader.Get(ikey)
			h.Release()
			if err != nil {
				return nil, 0, false, err
			}
			if found && (!best.found || seq > best.seq) {
				best = newest{value, seq, kind, true}
			}
		}
		if best.found {
			return best.value, best.kind, true, nil
		}
	}
	return nil, 0, false, nil
}

// pinRead takes what NewIter takes under db.mu for a read of v at seq.
func pinRead(db *DB, v *manifest.Version, seq keys.Seq) *list.Element {
	db.mu.Lock()
	defer db.mu.Unlock()
	v.Ref()
	return db.iterPins.PushBack(seq)
}

// runPathIter is the engine's iterator over v's tables alone.
func runPathIter(db *DB, v *manifest.Version, seq keys.Seq) *DBIter {
	return db.newIter(seq, v, pinRead(db, v, seq), memtable.New(), nil)
}

// refIter is the same user-visible collapse over the reference's sources.
func refIter(t *testing.T, db *DB, v *manifest.Version, seq keys.Seq, honourQuarantine bool) *DBIter {
	it := &DBIter{db: db, seq: seq, v: v, pin: pinRead(db, v, seq)}
	it.merged.Init(refSources(t, db, v, honourQuarantine))
	return it
}

type userKV struct{ k, v string }

// walk positions it at start (nil = First) and reads to the end.
func walk(it *DBIter, start []byte) ([]userKV, error) {
	var out []userKV
	ok := false
	if start == nil {
		ok = it.First()
	} else {
		ok = it.SeekGE(start)
	}
	for ; ok; ok = it.Next() {
		out = append(out, userKV{string(it.Key()), string(it.Value())})
	}
	return out, it.Err()
}

// runsTree is one generated tree and what the generator knows about it.
type runsTree struct {
	levels      [manifest.NumLevels][]*manifest.FileMeta
	wantL0Runs  int
	multiTable  bool               // some run holds more than one table
	partial     bool               // some run lost tables to a (pretended) compaction
	overlapping bool               // two physical files cover a common key
	singleTable bool               // some physical file holds exactly one table
	nonDisjoint bool               // some physical file's tables overlap each other
	quarantined *manifest.FileMeta // a level-0 table, or nil
}

const runsKeySpace = 240

func runsKey(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }

// genEntries draws a sorted batch of entries over [lo, hi): each key with
// probability p, one to three versions, a tenth of them tombstones.
func genEntries(rng *rand.Rand, seq *uint64, lo, hi int, p float64) []iterator.KV {
	var out []iterator.KV
	for i := lo; i < hi; i++ {
		if rng.Float64() >= p {
			continue
		}
		versions := 1 + rng.Intn(3)
		*seq += uint64(versions)
		for j := 0; j < versions; j++ { // newest first: internal-key order
			s := *seq - uint64(j)
			kind := keys.KindSet
			if rng.Intn(10) == 0 {
				kind = keys.KindDelete
			}
			out = append(out, iterator.KV{
				K: keys.MakeInternalKey(nil, runsKey(i), keys.Seq(s), kind),
				V: []byte(fmt.Sprintf("v%d-%030d", s, i)),
			})
		}
	}
	return out
}

// genTree writes a random tree's tables through db and returns their
// layout. Level 1 holds the oldest data as one sorted level; level 0 mixes
// whole flush runs, runs partly consumed, overlapping runs, single-table
// files, and sometimes one physical file whose tables overlap each other.
func genTree(t *testing.T, db *DB, rng *rand.Rand) (runsTree, keys.Seq) {
	t.Helper()
	var tr runsTree
	var seq uint64
	write := func(entries []iterator.KV, level int) []*manifest.FileMeta {
		if len(entries) == 0 {
			return nil
		}
		metas, err := db.writeTables(iterator.NewSlice(entries), level)
		if err != nil {
			t.Fatal(err)
		}
		return metas
	}
	if rng.Intn(4) > 0 {
		tr.levels[1] = write(genEntries(rng, &seq, 0, runsKeySpace, 0.7), 1)
	}
	for flushes := 1 + rng.Intn(4); flushes > 0; flushes-- {
		var metas []*manifest.FileMeta
		switch shape := rng.Intn(10); {
		case shape < 2: // a small flush: one table alone in its file
			lo := rng.Intn(runsKeySpace - 8)
			metas = write(genEntries(rng, &seq, lo, lo+8, 0.9), 0)
		case shape < 3: // one file, two overlapping batches cut by hand
			out := db.newTableOutput(0, nil)
			for _, span := range [2][2]int{{0, 140}, {100, runsKeySpace}} {
				for _, e := range genEntries(rng, &seq, span[0], span[1], 0.5) {
					if err := out.add(e.K, e.V); err != nil {
						t.Fatal(err)
					}
				}
				if out.w != nil {
					if err := out.cutTable(); err != nil {
						t.Fatal(err)
					}
				}
				out.lastUser = nil
			}
			var err error
			if metas, err = out.finish(); err != nil {
				t.Fatal(err)
			}
			group := append([]*manifest.FileMeta(nil), metas...)
			sort.Slice(group, func(i, j int) bool { return keys.Compare(group[i].Smallest, group[j].Smallest) < 0 })
			disjoint := true
			for i := 1; i < len(group); i++ {
				if keys.CompareUser(group[i-1].Largest.UserKey(), group[i].Smallest.UserKey()) >= 0 {
					disjoint = false
				}
			}
			if !disjoint {
				tr.nonDisjoint = true
				tr.wantL0Runs += len(metas) - 1 // falls back to one run per table
			} else if len(metas) > 1 {
				tr.multiTable = true
			}
		default: // a whole flush, sometimes partly consumed since
			metas = write(genEntries(rng, &seq, 0, runsKeySpace, 0.2+0.6*rng.Float64()), 0)
			if len(metas) > 2 && rng.Intn(2) == 0 {
				kept := metas[:0:0]
				for _, m := range metas {
					if rng.Intn(3) > 0 {
						kept = append(kept, m)
					}
				}
				if len(kept) > 0 && len(kept) < len(metas) {
					metas, tr.partial = kept, true
				}
			}
			if len(metas) > 1 {
				tr.multiTable = true
			}
		}
		if len(metas) == 0 {
			continue
		}
		tr.wantL0Runs++
		if len(metas) == 1 {
			tr.singleTable = true
		}
		for _, m := range metas {
			for _, o := range tr.levels[0] {
				if o.PhysNum != m.PhysNum && o.OverlapsUser(m.Smallest.UserKey(), m.Largest.UserKey()) {
					tr.overlapping = true
				}
			}
		}
		tr.levels[0] = append(tr.levels[0], metas...)
	}
	return tr, keys.Seq(seq)
}

// buildVersion installs tr in a throwaway version set — the builder's
// path, which is also the only way to mark a table quarantined — or, for
// trees without a quarantine, every other time through NewVersion.
func buildVersion(t *testing.T, tr *runsTree, viaBuilder bool) *manifest.Version {
	t.Helper()
	if !viaBuilder {
		levels := tr.levels
		levels[0] = append([]*manifest.FileMeta(nil), levels[0]...)
		sort.Slice(levels[0], func(i, j int) bool { return levels[0][i].Num > levels[0][j].Num })
		return manifest.NewVersion(levels)
	}
	vs, err := manifest.Create(vfs.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer vs.Close()
	edit := &manifest.VersionEdit{}
	for level, files := range tr.levels {
		for _, f := range files {
			edit.AddFile(level, f)
		}
	}
	if tr.quarantined != nil {
		edit.QuarantineFile(tr.quarantined.Num)
	}
	if err := vs.LogAndApply(edit); err != nil {
		t.Fatal(err)
	}
	v := vs.Current()
	v.Ref()
	return v
}

// TestRunReadsMatchLinearReference is the differential test of the
// run-based read path: on seeded random trees, Get of every key and walks
// from First and from SeekGE must return exactly what the linear
// every-table-is-a-source reference returns, and a quarantined table
// inside a run must fail both paths with the typed range error exactly
// when its span is entered.
func TestRunReadsMatchLinearReference(t *testing.T) {
	seeds := 600
	if testing.Short() {
		seeds = 120
	}
	cfg := boltTestConfig()
	cfg.L0CompactionTrigger = 1 << 20 // nothing runs in the background
	cfg.TableCacheEntries = 10_000
	db := openTestDB(t, vfs.NewMem(), cfg)
	defer db.Close()

	var multi, partial, overlapping, single, nonDisjoint, quarantines int
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		tr, maxSeq := genTree(t, db, rng)
		if len(tr.levels[0]) == 0 {
			continue
		}
		if seed%3 == 0 {
			// Quarantine a member of a multi-table run when there is one.
			tr.quarantined = tr.levels[0][rng.Intn(len(tr.levels[0]))]
			for _, f := range tr.levels[0] {
				n := 0
				for _, g := range tr.levels[0] {
					if g.PhysNum == f.PhysNum {
						n++
					}
				}
				if n > 2 {
					tr.quarantined = f
					break
				}
			}
			quarantines++
		}
		v := buildVersion(t, &tr, tr.quarantined != nil || seed%2 == 0)
		if err := v.CheckL0Runs(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := len(v.L0Runs()); got != tr.wantL0Runs {
			t.Fatalf("seed %d: %d level-0 runs, want %d\n%s", seed, got, tr.wantL0Runs, v.DebugString())
		}
		if got := v.L0PhysFiles(); got > tr.wantL0Runs || got < 1 {
			t.Fatalf("seed %d: %d level-0 physical files for %d runs", seed, got, tr.wantL0Runs)
		}
		for _, c := range []struct {
			seen  bool
			count *int
		}{{tr.multiTable, &multi}, {tr.partial, &partial}, {tr.overlapping, &overlapping},
			{tr.singleTable, &single}, {tr.nonDisjoint, &nonDisjoint}} {
			if c.seen {
				*c.count++
			}
		}
		// Mostly read the newest state; sometimes a sequence in the middle.
		seq := keys.MaxSeq
		if seed%4 == 1 {
			seq = keys.Seq(1 + rng.Intn(int(maxSeq)))
		}

		// Point lookups: every key of the space and one beyond each end.
		q := tr.quarantined
		for i := -1; i <= runsKeySpace; i++ {
			key := runsKey(i)
			if i < 0 {
				key = []byte("a")
			}
			ikey := keys.MakeInternalKey(nil, key, seq, keys.KindSeekMax)
			gotV, gotK, gotOK, gotErr := db.searchTables(v, ikey)
			wantV, wantK, wantOK, wantErr := refGet(db, v, ikey)
			if wantErr != nil || gotErr != nil {
				var g, w *RangeCorruptError
				if q == nil || !errors.As(gotErr, &g) || !errors.As(wantErr, &w) || g.Table != w.Table || g.Table != q.Num {
					t.Fatalf("seed %d key %s: err %v, reference %v", seed, key, gotErr, wantErr)
				}
				continue
			}
			if gotOK != wantOK || gotK != wantK || !bytes.Equal(gotV, wantV) {
				t.Fatalf("seed %d key %s: got (%q,%v,%v), reference (%q,%v,%v)\n%s",
					seed, key, gotV, gotK, gotOK, wantV, wantK, wantOK, v.DebugString())
			}
		}

		// Walks: from First and from a few SeekGE starts.
		starts := [][]byte{nil, runsKey(0), runsKey(runsKeySpace - 1), runsKey(runsKeySpace + 5)}
		for i := 0; i < 4; i++ {
			starts = append(starts, runsKey(rng.Intn(runsKeySpace)))
		}
		if q != nil {
			starts = append(starts, q.Smallest.UserKey(), q.Largest.UserKey(),
				append(append([]byte(nil), q.Largest.UserKey()...), 0))
		}
		for _, start := range starts {
			ref := refIter(t, db, v, seq, false)
			truth, err := walk(ref, start)
			if cerr := ref.Close(); err != nil || cerr != nil {
				t.Fatalf("seed %d: reference walk: %v / close %v", seed, err, cerr)
			}
			it := runPathIter(db, v, seq)
			got, err := walk(it, start)
			if cerr := it.Close(); cerr != nil {
				t.Fatalf("seed %d: close: %v", seed, cerr)
			}
			// A walk to the end enters the quarantined table's span unless
			// it starts beyond the table's last entry.
			enters := q != nil && (start == nil ||
				keys.Compare(q.Largest, keys.MakeInternalKey(nil, start, seq, keys.KindSeekMax)) >= 0)
			if !enters {
				if err != nil || !equalKVs(got, truth) {
					t.Fatalf("seed %d start %q: walk differs from the reference (err %v): %d vs %d entries\n%s",
						seed, start, err, len(got), len(truth), v.DebugString())
				}
				continue
			}
			var rc *RangeCorruptError
			if !errors.As(err, &rc) || rc.Table != q.Num {
				t.Fatalf("seed %d start %q: walk into quarantined table %d: err %v", seed, start, q.Num, err)
			}
			if len(got) > len(truth) || !equalKVs(got, truth[:len(got)]) {
				t.Fatalf("seed %d start %q: entries before the quarantine error are not a prefix of the reference", seed, start)
			}
			// The old path's source for the table failed every positioning.
			old := refIter(t, db, v, seq, true)
			_, oldErr := walk(old, start)
			_ = old.Close()
			if !errors.As(oldErr, &rc) || rc.Table != q.Num {
				t.Fatalf("seed %d start %q: reference with quarantine honoured: err %v", seed, start, oldErr)
			}
		}
		if q != nil {
			// Seeking into the span fails at once, from both read paths.
			it := runPathIter(db, v, seq)
			var rc *RangeCorruptError
			if it.SeekGE(q.Smallest.UserKey()) || !errors.As(it.Err(), &rc) || rc.Table != q.Num {
				t.Fatalf("seed %d: SeekGE into quarantined span: valid=%v err=%v", seed, it.Valid(), it.Err())
			}
			_ = it.Close()
			ikey := keys.MakeInternalKey(nil, q.Smallest.UserKey(), seq, keys.KindSeekMax)
			if _, _, _, err := db.searchTables(v, ikey); !errors.As(err, &rc) || rc.Table != q.Num {
				t.Fatalf("seed %d: Get inside quarantined span: err %v", seed, err)
			}
		}
	}
	t.Logf("%d seeds: %d with multi-table runs, %d partly consumed, %d overlapping, %d single-table, %d non-disjoint groups, %d quarantined",
		seeds, multi, partial, overlapping, single, nonDisjoint, quarantines)
	for name, n := range map[string]int{"multi-table runs": multi, "partly consumed runs": partial,
		"overlapping runs": overlapping, "single-table runs": single, "non-disjoint groups": nonDisjoint, "quarantines": quarantines} {
		if n < seeds/20 {
			t.Errorf("only %d of %d seeds exercised %s", n, seeds, name)
		}
	}
}

func equalKVs(a, b []userKV) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// benchmarkEngineConfig is the benchmark's engine (benchmark/config.go:
// the BoLT profile ÷ 16) with compactions held off.
func benchmarkEngineConfig() Config {
	return Config{
		MemTableBytes:        4 << 20,
		MaxSSTableBytes:      128 << 10,
		LogicalSSTableBytes:  64 << 10,
		GroupCompactionBytes: 4 << 20,
		L1MaxBytes:           640 << 10,
		LevelMultiplier:      10,
		BlockSize:            4096,
		BloomBitsPerKey:      10,
		EntryPadding:         88,
		L0CompactionTrigger:  1 << 20,
		L0SlowdownTrigger:    1 << 20,
		L0StopTrigger:        1 << 20,
		SettledCompaction:    true,
		SeekCompaction:       true,
		FDCache:              true,
		TableCacheEntries:    32_000,
		BlockCacheBytes:      8 << 20,
		VerifyInvariants:     true,
	}
}

// fillFlushes writes the benchmark's records (23-byte keys, 256-byte
// values) until n memtables have filled and been flushed.
func fillFlushes(t testing.TB, db *DB, n int64) {
	t.Helper()
	value := make([]byte, 256)
	for i := 0; db.met.MemtableSwitch.Load() < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("user%019d", i*7919%1_000_003)), value); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
}

// TestOneFlushIsOneRun: under the benchmark's engine a 4 MiB flush lands
// some seventy logical SSTables in level 0 — and they are one sorted run,
// which is what a reader, the read-amplification gauge and the scan's
// source count see.
func TestOneFlushIsOneRun(t *testing.T) {
	db := openTestDB(t, vfs.NewMem(), benchmarkEngineConfig())
	defer db.Close()
	for flushes := 1; flushes <= 2; flushes++ {
		fillFlushes(t, db, int64(flushes))
		db.mu.Lock()
		v := db.vs.Current()
		db.mu.Unlock()
		if tables := len(v.Levels[0]); tables < 50*flushes {
			t.Fatalf("%d flushes left %d level-0 tables; the test wants a flush cut into many", flushes, tables)
		}
		if got := len(v.L0Runs()); got != flushes {
			t.Fatalf("%d flushes: %d level-0 runs over %d tables\n%s", flushes, got, len(v.Levels[0]), v.DebugString())
		}
		if got := v.L0PhysFiles(); got != flushes {
			t.Fatalf("%d flushes: %d level-0 physical files", flushes, got)
		}
		if got := db.LevelStats()[0].ReadAmp; got != flushes {
			t.Fatalf("%d flushes: level-0 read amplification %d", flushes, got)
		}
		// A scan merges the memtable and one source per run; nothing is
		// below level 0.
		if got := len(db.readSources(v, memtable.New(), nil)); got != 1+flushes {
			t.Fatalf("%d flushes: a scan merges %d sources", flushes, got)
		}
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNewIterOnClosedDB: like Get and Put, NewIter reports a closed
// database instead of walking closed caches.
func TestNewIterOnClosedDB(t *testing.T) {
	db := openTestDB(t, vfs.NewMem(), testConfig())
	fill(t, db, 500, 100)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	it := db.NewIter(nil)
	if it.First() || it.SeekGE([]byte("key")) || it.Next() || it.Valid() {
		t.Fatal("iterator on a closed database is positioned")
	}
	if !errors.Is(it.Err(), ErrClosed) {
		t.Fatalf("Err = %v, want ErrClosed", it.Err())
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
}

// failingCloseIter is a source whose Close fails.
type failingCloseIter struct {
	iterator.Empty
	err error
}

func (f *failingCloseIter) Close() error { return f.err }

// TestIterCloseSurfacesSourceCloseError: the first failure closing a
// source — a run iterator reports the first of its tables' — comes back
// from DBIter.Close, and the iterator's pins are released all the same.
func TestIterCloseSurfacesSourceCloseError(t *testing.T) {
	db := openTestDB(t, vfs.NewMem(), testConfig())
	defer db.Close()
	fill(t, db, 2000, 100)
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	v := db.vs.Current()
	db.mu.Unlock()
	level := 1
	for level < manifest.NumLevels-1 && len(v.Levels[level]) == 0 {
		level++
	}

	first, second := errors.New("first close failure"), errors.New("second close failure")
	it := &DBIter{db: db, seq: keys.MaxSeq, v: v, pin: pinRead(db, v, keys.MaxSeq)}
	it.merged.Init([]iterator.Iterator{
		&runIter{db: db, v: v, level: level, files: v.Levels[level]},
		&failingCloseIter{err: first},
		&runIter{db: db, v: v, closeErr: second},
	})
	if !it.First() {
		t.Fatalf("First: %v", it.Err())
	}
	if err := it.Close(); !errors.Is(err, first) {
		t.Fatalf("Close = %v, want the first source failure", err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	db.mu.Lock()
	pins := db.iterPins.Len()
	db.mu.Unlock()
	if pins != 0 {
		t.Fatalf("%d iterator pins left after Close", pins)
	}

	// A run iterator reports what it recorded while crossing tables.
	r := &runIter{db: db, v: v, level: level, files: v.Levels[level], closeErr: second}
	for ok := r.First(); ok; ok = r.Next() {
	}
	if err := r.Close(); !errors.Is(err, second) {
		t.Fatalf("runIter.Close = %v, want the recorded failure", err)
	}
}

// TestCompactionMergesRunsNotTables: a compaction out of level 0 has one
// merge source per input run plus one for the next level's tables.
func TestCompactionMergesRunsNotTables(t *testing.T) {
	db := openTestDB(t, vfs.NewMem(), benchmarkEngineConfig())
	defer db.Close()
	fillFlushes(t, db, 3)
	db.mu.Lock()
	v := db.vs.Current()
	db.mu.Unlock()
	c := &compaction.Compaction{Level: 0, OutputLevel: 1, Inputs: v.Levels[0]}
	if got := len(db.compactionSources(c)); got != 3 {
		t.Fatalf("%d merge sources for 3 runs (%d tables)", got, len(c.Inputs))
	}
	// Moved down, the same tables are one sorted level: a two-way merge.
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	v = db.vs.Current()
	db.mu.Unlock()
	var files []*manifest.FileMeta
	for level := 1; level < manifest.NumLevels; level++ {
		if len(v.Levels[level]) > len(files) {
			files = v.Levels[level]
		}
	}
	if len(files) < 4 {
		t.Fatalf("no sorted level with tables to split:\n%s", v.DebugString())
	}
	c = &compaction.Compaction{Level: 1, OutputLevel: 2, Inputs: files[:len(files)/2], NextInputs: files[len(files)/2:]}
	if got := len(db.compactionSources(c)); got != 2 {
		t.Fatalf("%d merge sources for a sorted-level compaction of %d tables", got, len(files))
	}
}

// TestRunSlicesAreNotSeekVictims: reads that consult several level-0 runs
// charge no seek to a table that is one slice of a run — however many
// reads, no table of the resident flushes requests a compaction — while a
// whole-file level-0 table (a one-file-per-table profile) still does, as
// TestSeekCompactionTriggers shows.
func TestRunSlicesAreNotSeekVictims(t *testing.T) {
	db := openTestDB(t, vfs.NewMem(), benchmarkEngineConfig()) // SeekCompaction on, triggers held off
	defer db.Close()
	fillFlushes(t, db, 2)
	db.mu.Lock()
	v := db.vs.Current()
	db.mu.Unlock()
	budget := make(map[uint64]int64, len(v.Levels[0]))
	for _, f := range v.Levels[0] {
		budget[f.Num] = f.AllowedSeeks.Load()
	}
	before := db.met.TablesChecked.Load()
	const reads = 30_000 // over 200 per table: twice any table's budget
	for i := 0; i < reads; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("user%019d", i*7919%1_000_003)), nil); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
	}
	if got := db.met.TablesChecked.Load() - before; got < reads {
		t.Fatalf("%d reads consulted %d tables; the test wants reads that cross runs", reads, got)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if got := db.met.Snapshot().Compactions; got != 0 {
		t.Fatalf("%d compactions ran", got)
	}
	for _, f := range v.Levels[0] {
		if got := f.AllowedSeeks.Load(); got != budget[f.Num] {
			t.Fatalf("table %d of a level-0 run was charged: %d seeks left of %d", f.Num, got, budget[f.Num])
		}
	}
}
