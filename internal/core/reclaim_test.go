package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// opCountFS counts Open attempts, Remove calls and PunchHole calls per
// file name.
type opCountFS struct {
	vfs.FS
	mu     sync.Mutex
	counts map[opKey]int
}

type opKey struct {
	op   vfs.Op
	name string
}

// opOpen keys Open attempts; vfs.Op has no value for them.
const opOpen vfs.Op = 255

func newOpCountFS(inner vfs.FS) *opCountFS {
	return &opCountFS{FS: inner, counts: make(map[opKey]int)}
}

func (c *opCountFS) add(op vfs.Op, name string) {
	c.mu.Lock()
	c.counts[opKey{op, name}]++
	c.mu.Unlock()
}

func (c *opCountFS) count(op vfs.Op, name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[opKey{op, name}]
}

func (c *opCountFS) reset() {
	c.mu.Lock()
	clear(c.counts)
	c.mu.Unlock()
}

func (c *opCountFS) Open(name string) (vfs.File, error) {
	c.add(opOpen, name)
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &opCountFile{File: f, fs: c, name: name}, nil
}

func (c *opCountFS) Remove(name string) error {
	c.add(vfs.OpRemove, name)
	return c.FS.Remove(name)
}

type opCountFile struct {
	vfs.File
	fs   *opCountFS
	name string
}

func (f *opCountFile) PunchHole(off, length int64) error {
	f.fs.add(vfs.OpPunchHole, f.name)
	return f.File.PunchHole(off, length)
}

// checkNoStrayTables fails if a table file on disk belongs to no physical
// file of the current version.
func checkNoStrayTables(t *testing.T, db *DB, fs vfs.FS) {
	t.Helper()
	live := map[uint64]bool{}
	db.mu.Lock()
	for _, files := range db.vs.Current().Levels {
		for _, f := range files {
			live[f.PhysNum] = true
		}
	}
	db.mu.Unlock()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	var stray []string
	for _, n := range names {
		if kind, num, ok := manifest.ParseFileName(n); ok && kind == manifest.KindTable && !live[num] {
			stray = append(stray, n)
		}
	}
	if len(stray) > 0 {
		t.Fatalf("%d table files on disk outside the current version: %v", len(stray), stray)
	}
}

// TestPinnedTablesReclaimedWhenPinDrops: tables a compaction deletes while
// a reader pins an older version are reclaimed when that pin drops, not
// when some later compaction happens to run.
func TestPinnedTablesReclaimedWhenPinDrops(t *testing.T) {
	fillAndCompact := func(t *testing.T, db *DB, round int) {
		t.Helper()
		fillToFlush(t, db, fmt.Sprintf("pin%d", round))
		if err := db.CompactRange(nil, nil); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("iterator", func(t *testing.T) {
		fs := vfs.NewMem()
		db := openTestDB(t, fs, boltTestConfig())
		defer db.Close()
		fillAndCompact(t, db, 0)
		it := db.NewIter(nil)
		fillAndCompact(t, db, 1)
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if err := db.WaitIdle(); err != nil {
			t.Fatal(err)
		}
		checkNoStrayTables(t, db, fs)
	})

	t.Run("scrub", func(t *testing.T) {
		fs := vfs.NewMem()
		cfg := boltTestConfig()
		started, resume := make(chan struct{}), make(chan struct{})
		cfg.EventListener = func(e events.Event) {
			if e.Type == events.TypeScrubStart {
				close(started)
				<-resume // the pass holds its version pin meanwhile
			}
		}
		db := openTestDB(t, fs, cfg)
		defer db.Close()
		fillAndCompact(t, db, 0)
		scrubbed := make(chan error, 1)
		go func() { scrubbed <- db.Scrub() }()
		<-started
		fillAndCompact(t, db, 1)
		close(resume)
		if err := <-scrubbed; err != nil {
			t.Fatal(err)
		}
		if err := db.WaitIdle(); err != nil {
			t.Fatal(err)
		}
		checkNoStrayTables(t, db, fs)
	})
}

// TestReclaimOpensEachFileOnce: one compaction kills a run of adjacent
// logical tables inside live compaction files and every logical table of
// others. Its reclaim pass unlinks the dead files without opening them,
// opens each live one once, and punches each run of adjacent dead tables
// in one call.
func TestReclaimOpensEachFileOnce(t *testing.T) {
	cfs := newOpCountFS(vfs.NewMem())
	db := openTestDB(t, cfs, boltTestConfig())
	defer db.Close()
	put := func(i int, tag string) {
		if err := db.Put([]byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("%s-%040d", tag, i))); err != nil {
			t.Fatal(err)
		}
	}
	// Three batches, each compacted on its own: three compaction files,
	// side by side in the last level.
	const batch = 600
	for b := 0; b < 3; b++ {
		for i := b * batch; i < (b+1)*batch; i++ {
			put(i, "v0")
		}
		if err := db.CompactRange(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Read everything once, so the compaction below finds every input in
	// the table cache and opens no file to read it.
	it := db.NewIter(nil)
	for ok := it.First(); ok; ok = it.Next() {
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	before := map[uint64][]*manifest.FileMeta{} // by physical file
	for _, files := range db.vs.Current().Levels {
		for _, f := range files {
			before[f.PhysNum] = append(before[f.PhysNum], f)
		}
	}
	db.mu.Unlock()

	// Overwrite the first file's tail, the second file and the third's head.
	lo, hi := batch*2/3, batch*7/3
	for i := lo; i < hi; i++ {
		put(i, "v1")
	}
	cfs.reset()
	if err := db.CompactRange([]byte(fmt.Sprintf("key%05d", lo)), []byte(fmt.Sprintf("key%05d", hi-1))); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	db.mu.Lock()
	live := map[uint64]bool{}
	for _, files := range db.vs.Current().Levels {
		for _, f := range files {
			live[f.Num] = true
		}
	}
	db.mu.Unlock()
	var unlinked, merged int
	for phys, tables := range before {
		name := manifest.TableFileName(phys)
		var dead []*manifest.FileMeta
		for _, f := range tables {
			if !live[f.Num] {
				dead = append(dead, f)
			}
		}
		opens, punches, removes := cfs.count(opOpen, name), cfs.count(vfs.OpPunchHole, name), cfs.count(vfs.OpRemove, name)
		if len(dead) == len(tables) {
			unlinked++
			if opens != 0 || punches != 0 || removes != 1 {
				t.Errorf("dead file %s: %d opens, %d punches, %d removes; want 0, 0, 1", name, opens, punches, removes)
			}
			continue
		}
		// Runs of byte-adjacent dead tables: one punch each.
		slices.SortFunc(dead, func(a, b *manifest.FileMeta) int { return int(a.Offset - b.Offset) })
		runs := 0
		for i, f := range dead {
			if i == 0 || dead[i-1].Offset+dead[i-1].Size != f.Offset {
				runs++
			} else {
				merged++
			}
		}
		wantOpens := min(runs, 1)
		if opens != wantOpens || punches != runs || removes != 0 {
			t.Errorf("live file %s with %d dead tables in %d runs: %d opens, %d punches, %d removes; want %d, %d, 0",
				name, len(dead), runs, opens, punches, removes, wantOpens, runs)
		}
	}
	if unlinked == 0 || merged == 0 {
		t.Fatalf("the test needs an unlinked file and a run of adjacent dead tables; got %d unlinked, %d merged", unlinked, merged)
	}
}
