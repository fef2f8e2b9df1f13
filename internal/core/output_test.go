package core

import (
	"fmt"
	"testing"

	"github.com/bolt-lsm/bolt/internal/iterator"
	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

func ik(u string, seq uint64) keys.InternalKey {
	return keys.MakeInternalKey(nil, []byte(u), keys.Seq(seq), keys.KindSet)
}

// outputDB builds a DB shell good enough to drive tableOutput directly.
func outputDB(t *testing.T, cfg Config) (*DB, *vfs.MemFS) {
	t.Helper()
	fs := vfs.NewMem()
	db, err := Open(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, fs
}

func entriesFor(n int, prefix string) []iterator.KV {
	var out []iterator.KV
	for i := 0; i < n; i++ {
		out = append(out, iterator.KV{
			K: ik(fmt.Sprintf("%s%06d", prefix, i), uint64(i+1)),
			V: make([]byte, 100),
		})
	}
	return out
}

func TestTableOutputLegacyOneSyncPerTable(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSSTableBytes = 4 << 10
	db, _ := outputDB(t, cfg)
	syncsBefore := db.IO().Fsyncs.Load()
	metas, err := db.writeTables(iterator.NewSlice(entriesFor(300, "k")), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) < 4 {
		t.Fatalf("expected several tables, got %d", len(metas))
	}
	syncs := db.IO().Fsyncs.Load() - syncsBefore
	if syncs != int64(len(metas)) {
		t.Fatalf("legacy mode: %d syncs for %d tables", syncs, len(metas))
	}
	// Each table owns its physical file.
	for _, m := range metas {
		if m.PhysNum != m.Num || m.Offset != 0 {
			t.Fatalf("legacy meta: %+v", m)
		}
	}
}

func TestTableOutputCompactionFileSingleSync(t *testing.T) {
	cfg := boltTestConfig()
	db, _ := outputDB(t, cfg)
	syncsBefore := db.IO().Fsyncs.Load()
	metas, err := db.writeTables(iterator.NewSlice(entriesFor(300, "k")), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) < 4 {
		t.Fatalf("expected several logical tables, got %d", len(metas))
	}
	syncs := db.IO().Fsyncs.Load() - syncsBefore
	if syncs != 1 {
		t.Fatalf("compaction-file mode: %d syncs, want 1", syncs)
	}
	// All logical tables share one physical file at increasing offsets.
	phys := metas[0].PhysNum
	var prevEnd int64
	for i, m := range metas {
		if m.PhysNum != phys {
			t.Fatalf("table %d in different physical file", i)
		}
		if m.Offset != prevEnd {
			t.Fatalf("table %d at offset %d, want %d", i, m.Offset, prevEnd)
		}
		prevEnd = m.Offset + m.Size
	}
}

func TestTableOutputCutPoints(t *testing.T) {
	cfg := boltTestConfig()
	cfg.LogicalSSTableBytes = 1 << 20 // huge: only cut points force cuts
	db, _ := outputDB(t, cfg)
	out := db.newTableOutput(1, [][]byte{[]byte("k000100"), []byte("k000200")})
	for _, e := range entriesFor(300, "k") {
		if err := out.add(e.K, e.V); err != nil {
			t.Fatal(err)
		}
	}
	metas, err := out.finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 3 {
		t.Fatalf("cut points should force 3 tables, got %d", len(metas))
	}
	// No output table's range may span a cut point.
	bounds := []string{"k000100", "k000200"}
	for _, m := range metas {
		for _, b := range bounds {
			lo, hi := string(m.Smallest.UserKey()), string(m.Largest.UserKey())
			if lo < b && hi >= b {
				t.Fatalf("table [%s..%s] spans cut point %s", lo, hi, b)
			}
		}
	}
}

func TestTableOutputKeepsUserKeyVersionsTogether(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSSTableBytes = 4 << 10
	db, _ := outputDB(t, cfg)
	// Many versions of few user keys: versions of one key must never split
	// across tables.
	var es []iterator.KV
	seq := uint64(100000)
	for k := 0; k < 10; k++ {
		for v := 0; v < 60; v++ {
			es = append(es, iterator.KV{
				K: keys.MakeInternalKey(nil, []byte(fmt.Sprintf("key%02d", k)), keys.Seq(seq), keys.KindSet),
				V: make([]byte, 100),
			})
			seq--
		}
	}
	metas, err := db.writeTables(iterator.NewSlice(es), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) < 2 {
		t.Fatalf("expected multiple tables, got %d", len(metas))
	}
	for i := 1; i < len(metas); i++ {
		prev, cur := metas[i-1], metas[i]
		if keys.CompareUser(prev.Largest.UserKey(), cur.Smallest.UserKey()) >= 0 {
			t.Fatalf("user key split across tables: %s vs %s",
				prev.Largest.UserKey(), cur.Smallest.UserKey())
		}
	}
}

func TestBoltLayoutOnDisk(t *testing.T) {
	// After a real workload, BoLT's physical files must hold multiple
	// logical SSTables (the defining on-disk property).
	fs := vfs.NewMem()
	db := openTestDB(t, fs, boltTestConfig())
	defer db.Close()
	fill(t, db, 4000, 100)

	db.mu.Lock()
	v := db.vs.Current()
	perPhys := map[uint64]int{}
	for level := range v.Levels {
		for _, f := range v.Levels[level] {
			perPhys[f.PhysNum]++
		}
	}
	db.mu.Unlock()
	shared := 0
	for _, n := range perPhys {
		if n > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatalf("no compaction file holds multiple logical SSTables:\n%s", db.DebugVersion())
	}
}

func TestL0UnitsCountsPhysicalFiles(t *testing.T) {
	db, _ := outputDB(t, boltTestConfig())
	db.mu.Lock()
	defer db.mu.Unlock()
	// Fabricate a version: 6 logical tables in 2 physical files.
	v := &manifest.Version{}
	for i := 0; i < 6; i++ {
		m := &manifest.FileMeta{
			Num: uint64(100 + i), PhysNum: uint64(50 + i/3),
			Offset: int64(i%3) * 1000, Size: 1000,
			Smallest: ik(fmt.Sprintf("a%d", i), 1), Largest: ik(fmt.Sprintf("b%d", i), 1),
		}
		v.Levels[0] = append(v.Levels[0], m)
	}
	edit := &manifest.VersionEdit{}
	for _, f := range v.Levels[0] {
		edit.AddFile(0, f)
	}
	if err := db.vs.LogAndApply(edit); err != nil {
		t.Fatal(err)
	}
	if got := db.l0UnitsLocked(); got != 2 {
		t.Fatalf("l0Units = %d, want 2 physical files", got)
	}
}

func TestObsoleteWALsDeleted(t *testing.T) {
	fs := vfs.NewMem()
	db := openTestDB(t, fs, testConfig())
	defer db.Close()
	fill(t, db, 3000, 100)
	// After flushes, only the active WAL should remain.
	names, _ := fs.List()
	logs := 0
	for _, n := range names {
		if kind, _, _ := manifest.ParseFileName(n); kind == manifest.KindLog {
			logs++
		}
	}
	if logs > 2 {
		t.Fatalf("%d WAL files on disk; obsolete logs not collected", logs)
	}
}

func TestObsoleteTablesDeletedFromDisk(t *testing.T) {
	fs := vfs.NewMem()
	db := openTestDB(t, fs, testConfig())
	defer db.Close()
	fill(t, db, 4000, 100)
	// Tables on disk must be exactly the live set (plus nothing zombie
	// once background work quiesces; allow the zombie list to drain).
	db.mu.Lock()
	for db.running > 0 {
		db.cond.Wait()
	}
	live := map[uint64]bool{}
	v := db.vs.Current()
	for level := range v.Levels {
		for _, f := range v.Levels[level] {
			live[f.PhysNum] = true
		}
	}
	db.mu.Unlock()

	names, _ := fs.List()
	for _, n := range names {
		if kind, num, _ := manifest.ParseFileName(n); kind == manifest.KindTable {
			if !live[num] {
				t.Fatalf("orphan table file %s on disk", n)
			}
		}
	}
	if db.met.TablesDeleted.Load() == 0 {
		t.Fatal("no tables were ever deleted")
	}
}

func TestLargeValuesAndEmptyValues(t *testing.T) {
	db, _ := outputDB(t, boltTestConfig())
	// A value bigger than the logical SSTable size must still round-trip.
	big := make([]byte, 64<<10)
	for i := range big {
		big[i] = byte(i)
	}
	if err := db.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("empty"), nil); err != nil {
		t.Fatal(err)
	}
	fill(t, db, 1500, 100) // push them through flush/compaction
	got, err := db.Get([]byte("big"), nil)
	if err != nil || len(got) != len(big) || got[12345] != big[12345] {
		t.Fatalf("big value: len=%d err=%v", len(got), err)
	}
	got, err = db.Get([]byte("empty"), nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty value: %q err=%v", got, err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := testConfig()
	bad.SettledCompaction = true // without logical SSTables
	if _, err := Open(vfs.NewMem(), bad); err == nil {
		t.Fatal("settled without logical sstables accepted")
	}
	bad2 := testConfig()
	bad2.Fragmented = true
	bad2.LogicalSSTableBytes = 4 << 10
	if _, err := Open(vfs.NewMem(), bad2); err == nil {
		t.Fatal("fragmented + compaction files accepted")
	}
	bad3 := testConfig()
	bad3.L0SlowdownTrigger = 20
	bad3.L0StopTrigger = 10
	if _, err := Open(vfs.NewMem(), bad3); err == nil {
		t.Fatal("slowdown > stop accepted")
	}
}
