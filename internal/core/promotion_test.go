package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/bolt-lsm/bolt/internal/compaction"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// countSyncs makes efs count the syncs it sees, by file kind (a directory
// sync counts as KindUnknown); take returns the counts since its last call.
func countSyncs(efs *vfs.ErrorFS) (take func() map[manifest.FileKind]int) {
	var mu sync.Mutex
	counts := make(map[manifest.FileKind]int)
	efs.SetInjector(vfs.InjectorFunc(func(op vfs.Op, name string, _ int64) error {
		if op == vfs.OpSync || op == vfs.OpSyncDir {
			kind, _, _ := manifest.ParseFileName(name)
			mu.Lock()
			counts[kind]++
			mu.Unlock()
		}
		return nil
	}))
	return func() map[manifest.FileKind]int {
		mu.Lock()
		defer mu.Unlock()
		got := counts
		counts = make(map[manifest.FileKind]int)
		return got
	}
}

// skipSyncFS makes the next MANIFEST sync, once armed, return success
// without reaching the inner filesystem: the mutant of a commit that
// skipped its barrier.
type skipSyncFS struct {
	vfs.FS
	armed atomic.Bool
}

type skipSyncFile struct {
	vfs.File
	fs *skipSyncFS
}

func (s *skipSyncFS) Create(name string) (vfs.File, error) {
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	if kind, _, _ := manifest.ParseFileName(name); kind != manifest.KindManifest {
		return f, nil
	}
	return &skipSyncFile{File: f, fs: s}, nil
}

func (f *skipSyncFile) Sync() error {
	if f.fs.armed.CompareAndSwap(true, false) {
		return nil
	}
	return f.File.Sync()
}

// flushNow rotates the memtable and waits until its flush has landed.
func flushNow(t *testing.T, db *DB) {
	t.Helper()
	db.mu.Lock()
	err := db.flushMemtableLocked(false)
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
}

// runCompaction runs c alone, as one job on the caller's goroutine, with
// background picks held off. mu is released explicitly, not deferred: a
// checker panic unwinds from the job's reclaims, which run without it.
func runCompaction(db *DB, c *compaction.Compaction) error {
	db.mu.Lock()
	db.manualActive = true
	pending := db.reserveLocked(c)
	err := db.runForegroundLocked(func() *job { j := pending; pending = nil; return j })
	db.manualActive = false
	db.cond.Broadcast()
	db.mu.Unlock()
	return err
}

// rewriteLevel0 compacts all of level 0 into level 1, rewriting it.
func rewriteLevel0(t *testing.T, db *DB) error {
	t.Helper()
	db.mu.Lock()
	c := db.manualCompactionLocked(0, nil, nil)
	db.mu.Unlock()
	if c == nil {
		t.Fatalf("level 0 is empty:\n%s", db.DebugVersion())
	}
	return runCompaction(db, c)
}

// promoteLevel1 runs the settled pick of a level 1 whose every table
// overlaps nothing in level 2: promotion only, no victim to rewrite.
func promoteLevel1(t *testing.T, db *DB) {
	t.Helper()
	db.mu.Lock()
	v := db.vs.Current()
	c := &compaction.Compaction{Level: 1, OutputLevel: 2, Reason: compaction.ReasonSettled}
	for _, f := range v.Levels[1] {
		if v.OverlapBytes(2, f.Smallest.UserKey(), f.Largest.UserKey()) != 0 {
			t.Fatalf("table %d overlaps level 2:\n%s", f.Num, v.DebugString())
		}
		c.Settled = append(c.Settled, f)
	}
	db.mu.Unlock()
	if len(c.Settled) == 0 {
		t.Fatalf("level 1 is empty:\n%s", db.DebugVersion())
	}
	if err := runCompaction(db, c); err != nil {
		t.Fatal(err)
	}
}

// levelOneTree fills a settled-profile store with n keys and lands them,
// through a flush and a level-0 rewrite, in level 1 over an empty level 2.
func levelOneTree(t *testing.T, fs vfs.FS, n int) *DB {
	t.Helper()
	db := openTestDB(t, fs, boltTestConfig())
	fill(t, db, n, 100)
	flushNow(t, db)
	if err := rewriteLevel0(t, db); err != nil {
		t.Fatal(err)
	}
	return db
}

// checkAllKeys reads back every key fill wrote.
func checkAllKeys(t *testing.T, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if v, err := db.Get([]byte(fmt.Sprintf("key%08d", i)), nil); err != nil || len(v) != 100 {
			t.Fatalf("key%08d: %d-byte value, %v\n%s", i, len(v), err, db.DebugVersion())
		}
	}
}

// TestSettledPromotionPaysNoBarrier: a promotion-only job issues no sync
// at all, while a rewrite compaction pays exactly its data barrier and its
// MANIFEST barrier.
func TestSettledPromotionPaysNoBarrier(t *testing.T) {
	efs := vfs.NewErrorFS(vfs.NewMem())
	syncs := countSyncs(efs)
	db := openTestDB(t, efs, boltTestConfig())
	defer db.Close()
	fill(t, db, 100, 100)
	flushNow(t, db)

	syncs()
	if err := rewriteLevel0(t, db); err != nil {
		t.Fatal(err)
	}
	if got := syncs(); got[manifest.KindTable] != 1 || got[manifest.KindManifest] != 1 || len(got) != 2 {
		t.Fatalf("rewrite compaction synced %v (by file kind); want one table and one MANIFEST sync", got)
	}

	moved := db.NumLevelFiles()[1]
	promoteLevel1(t, db)
	if got := syncs(); len(got) != 0 {
		t.Fatalf("promotion-only compaction synced %v (by file kind); want nothing", got)
	}
	if files := db.NumLevelFiles(); files[1] != 0 || files[2] != moved {
		t.Fatalf("levels %v after promoting %d tables", files, moved)
	}
	if got := db.met.SettledPromotions.Load(); got != int64(moved) {
		t.Fatalf("%d settled promotions, want %d", got, moved)
	}
	checkAllKeys(t, db, 100)
}

// TestCrashLosesOnlyUnsyncedPromotion: a crash right after a
// promotion-only commit, before any later sync, reopens at the layout
// before the move, with every acknowledged key.
func TestCrashLosesOnlyUnsyncedPromotion(t *testing.T) {
	mem := vfs.NewMem()
	db := levelOneTree(t, mem, 100)
	defer db.Close()
	before := db.NumLevelFiles()
	promoteLevel1(t, db)

	crashed := openTestDB(t, mem.CrashClone(), boltTestConfig())
	defer crashed.Close()
	if files := crashed.NumLevelFiles(); files != before {
		t.Fatalf("reopened levels %v, want the layout before the move %v", files, before)
	}
	if err := crashed.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkAllKeys(t, crashed, 100)
}

// TestFlushMakesPromotionDurable: the next synced MANIFEST record — here a
// flush's — covers the unsynced move before it.
func TestFlushMakesPromotionDurable(t *testing.T) {
	mem := vfs.NewMem()
	db := levelOneTree(t, mem, 100)
	defer db.Close()
	promoteLevel1(t, db)
	fill(t, db, 200, 100) // rewrites keys 0-99, adds 100-199
	flushNow(t, db)
	want := db.NumLevelFiles()
	if want[0] == 0 || want[1] != 0 || want[2] == 0 {
		t.Fatalf("tree not as arranged: levels %v", want)
	}

	crashed := openTestDB(t, mem.CrashClone(), boltTestConfig())
	defer crashed.Close()
	if files := crashed.NumLevelFiles(); files != want {
		t.Fatalf("reopened levels %v, want %v", files, want)
	}
	if err := crashed.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkAllKeys(t, crashed, 200)
}

// expectBarrierPanic runs f and fails unless it panics with a barrier
// checker message containing want.
func expectBarrierPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		if !strings.HasPrefix(msg, "boltinvariants: ") || !strings.Contains(msg, want) {
			t.Fatalf("recovered %q, want the barrier checker's panic naming %q", msg, want)
		}
	}()
	f()
}

// TestBarrierCheckerCatchesSkippedRewriteSync runs a rewrite compaction
// whose MANIFEST sync is skipped, as a mutant that treated every edit as a
// move would: the checker panics when the compaction reclaims its level-0
// input, whose deletion is not yet durable. The store is abandoned, not
// closed: the panic unwound its job mid-envelope.
func TestBarrierCheckerCatchesSkippedRewriteSync(t *testing.T) {
	fs := &skipSyncFS{FS: vfs.NewSyncTrackerFS(vfs.NewMem(), barrierChecker{})}
	db := openTestDB(t, fs, boltTestConfig())
	fill(t, db, 100, 100)
	flushNow(t, db)
	db.mu.Lock()
	level0 := manifest.TableFileName(db.vs.Current().Levels[0][0].PhysNum)
	db.mu.Unlock()

	fs.armed.Store(true)
	expectBarrierPanic(t, level0+" reclaimed while", func() { _ = rewriteLevel0(t, db) })
}

// TestBarrierCheckerCatchesSkippedFlushSync: a flush whose MANIFEST sync
// is skipped reclaims no table, so the checker catches it at the next
// MANIFEST sync, which covers the flush's record though its own commit
// never paid for it.
func TestBarrierCheckerCatchesSkippedFlushSync(t *testing.T) {
	fs := &skipSyncFS{FS: vfs.NewSyncTrackerFS(vfs.NewMem(), barrierChecker{})}
	db := openTestDB(t, fs, boltTestConfig())
	fill(t, db, 100, 100)
	fs.armed.Store(true)
	flushNow(t, db)

	expectBarrierPanic(t, "not move-only", func() { _ = rewriteLevel0(t, db) })
}
