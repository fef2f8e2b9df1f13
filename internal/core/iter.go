package core

import (
	"container/list"
	"sort"

	"github.com/bolt-lsm/bolt/internal/cache"
	"github.com/bolt-lsm/bolt/internal/iterator"
	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/memtable"
	"github.com/bolt-lsm/bolt/internal/sstable"
)

// runIter iterates one sorted run — a sorted level, one of level 0's runs
// (manifest.Version.L0Runs), or a compaction's share of either: tables
// ordered by Smallest with pairwise-disjoint user-key ranges — opening one
// table at a time through the table cache. The table iterator and the
// table's cache handle are embedded, so crossing from one table to the
// next allocates nothing.
type runIter struct {
	db *DB
	// v is the pinned version the files came from (the enclosing DBIter
	// holds the reference). User reads consult it for quarantine marks, so
	// iterating into a corrupt table's span fails with the typed range
	// error instead of serving garbage.
	v     *manifest.Version
	level int
	files []*manifest.FileMeta
	// forCompaction marks a compaction input: tables are read in
	// compactionReadahead chunks past the block cache, and failures are
	// reported raw — the compaction worker decides about quarantine, and a
	// table quarantined since the pick is still an input.
	forCompaction bool

	idx      int
	tbl      sstable.Iter // over files[idx] while opened
	h        cache.Handle // the reference tbl reads through while opened
	opened   bool
	err      error
	closeErr error // first failure closing a table iterator
}

var _ iterator.Iterator = (*runIter)(nil)

func (l *runIter) open(i int) bool {
	l.closeCur()
	if i < 0 || i >= len(l.files) {
		l.idx = len(l.files)
		return false
	}
	f := l.files[i]
	if !l.forCompaction && l.v.IsQuarantined(f.Num) {
		l.err = rangeCorruptError(l.level, f, nil)
		return false
	}
	h, err := l.db.tableCache.Acquire(f)
	if err != nil {
		if !l.forCompaction {
			err = l.db.maybeQuarantineRead(l.level, f, err)
		}
		l.err = err
		return false
	}
	var opts sstable.IterOpts
	if l.forCompaction {
		opts.Readahead = compactionReadahead
	}
	l.idx, l.h, l.opened = i, h, true
	l.tbl.Init(h.Reader, opts)
	return true
}

func (l *runIter) closeCur() {
	if !l.opened {
		return
	}
	if err := l.tbl.Close(); err != nil && l.closeErr == nil {
		l.closeErr = err
	}
	l.h.Release()
	l.h, l.opened = cache.Handle{}, false
}

// First implements iterator.Iterator.
func (l *runIter) First() bool {
	l.err = nil
	if !l.open(0) {
		return false
	}
	if l.tbl.First() {
		return true
	}
	if l.err = l.tbl.Err(); l.err != nil {
		return false
	}
	return l.nextFile()
}

// Seek implements iterator.Iterator.
func (l *runIter) Seek(target keys.InternalKey) bool {
	l.err = nil
	idx := sort.Search(len(l.files), func(i int) bool {
		return keys.Compare(l.files[i].Largest, target) >= 0
	})
	if !l.open(idx) {
		return false
	}
	if l.tbl.Seek(target) {
		return true
	}
	if l.err = l.tbl.Err(); l.err != nil {
		return false
	}
	return l.nextFile()
}

func (l *runIter) nextFile() bool {
	for {
		if !l.open(l.idx + 1) {
			return false
		}
		if l.tbl.First() {
			return true
		}
		if l.err = l.tbl.Err(); l.err != nil {
			return false
		}
	}
}

// Next implements iterator.Iterator.
func (l *runIter) Next() bool {
	if !l.Valid() {
		return false
	}
	if l.tbl.Next() {
		return true
	}
	if l.err = l.tbl.Err(); l.err != nil {
		return false
	}
	return l.nextFile()
}

// Valid implements iterator.Iterator.
func (l *runIter) Valid() bool {
	return l.err == nil && l.opened && l.tbl.Valid()
}

// Key implements iterator.Iterator.
func (l *runIter) Key() keys.InternalKey {
	if !l.Valid() {
		return nil
	}
	return l.tbl.Key()
}

// Value implements iterator.Iterator.
func (l *runIter) Value() []byte {
	if !l.Valid() {
		return nil
	}
	return l.tbl.Value()
}

// Err implements iterator.Iterator.
func (l *runIter) Err() error { return l.err }

// Close implements iterator.Iterator; it reports the first failure closing
// any of the tables the iterator went through.
func (l *runIter) Close() error {
	l.closeCur()
	l.files = nil
	return l.closeErr
}

// forEachRun calls fn for every sorted run the tables of v are read as:
// level 0's runs, each sorted level whole, and — in fragmented profiles,
// whose deeper levels pile overlapping tables — each table on its own.
func (db *DB) forEachRun(v *manifest.Version, fn func(level int, files []*manifest.FileMeta)) {
	for _, run := range v.L0Runs() {
		fn(0, run)
	}
	for level := 1; level < manifest.NumLevels; level++ {
		files := v.Levels[level]
		switch {
		case len(files) == 0:
		case db.cfg.Fragmented:
			for i := range files {
				fn(level, files[i:i+1])
			}
		default:
			fn(level, files)
		}
	}
}

// DBIter is a forward iterator over the user-visible key space at a fixed
// sequence number: internal versions are collapsed to the newest visible
// one and tombstoned keys are skipped.
//
//boltvet:mustclose
type DBIter struct {
	db     *DB
	seq    keys.Seq
	v      *manifest.Version // pinned until Close; nil when closed or never opened
	pin    *list.Element     // entry in db.iterPins; holds back value-log punches
	merged iterator.Merging

	key     []byte
	value   []byte
	skipKey []byte // user key whose remaining (older) versions are skipped
	valid   bool
	err     error
}

// NewIter returns an iterator over the database at snap (nil = latest
// committed state at creation time). Callers must Close it. On a closed
// database the iterator is invalid and its Err is ErrClosed.
func (db *DB) NewIter(snap *Snapshot) *DBIter {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return &DBIter{err: ErrClosed}
	}
	// The sequence is read in the critical section that registers the pin:
	// read before it, a value-GC pass could re-put, find no pin older than
	// its safeSeq and punch in the window, leaving this iterator pinned at
	// a sequence that cannot see the re-puts and pointing into the hole.
	seq := db.VisibleSeq()
	if snap != nil {
		seq = snap.seq
	}
	mem, imm := db.mem, db.imm
	v := db.vs.Current()
	v.Ref()
	// Pin seq for value GC: punches of records this iterator might still
	// dereference are deferred until Close removes the pin.
	pin := db.iterPins.PushBack(seq)
	db.mu.Unlock()
	return db.newIter(seq, v, pin, mem, imm)
}

// readSources returns what a read of a captured state merges: the
// memtables and one lazy concatenating iterator per sorted run of v, so a
// scan pays for the number of runs, not the number of tables. The source
// slice and the run iterators are each sized and allocated once.
func (db *DB) readSources(v *manifest.Version, mem, imm *memtable.MemTable) []iterator.Iterator {
	runs := 0
	db.forEachRun(v, func(int, []*manifest.FileMeta) { runs++ })
	sources := make([]iterator.Iterator, 0, 2+runs)
	sources = append(sources, mem.NewIter())
	if imm != nil {
		sources = append(sources, imm.NewIter())
	}
	iters := make([]runIter, 0, runs)
	db.forEachRun(v, func(level int, files []*manifest.FileMeta) {
		iters = append(iters, runIter{db: db, v: v, level: level, files: files})
		sources = append(sources, &iters[len(iters)-1])
	})
	return sources
}

// newIter builds the iterator over a captured read state.
func (db *DB) newIter(seq keys.Seq, v *manifest.Version, pin *list.Element, mem, imm *memtable.MemTable) *DBIter {
	it := &DBIter{db: db, seq: seq, v: v, pin: pin}
	it.merged.Init(db.readSources(v, mem, imm))
	return it
}

// findVisible scans forward from the merged iterator's current position to
// the next user-visible entry.
func (it *DBIter) findVisible() bool {
	it.valid = false
	for it.merged.Valid() {
		ikey := it.merged.Key()
		if ikey.Seq() > it.seq {
			it.merged.Next()
			continue
		}
		uk := ikey.UserKey()
		if it.skipKey != nil && keys.CompareUser(uk, it.skipKey) == 0 {
			it.merged.Next()
			continue
		}
		// Newest visible version of this user key.
		it.skipKey = append(it.skipKey[:0], uk...)
		if ikey.Kind() == keys.KindDelete {
			it.merged.Next()
			continue
		}
		it.key = append(it.key[:0], uk...)
		if ikey.Kind() == keys.KindSetPtr {
			value, err := it.db.vlogGet(it.merged.Value())
			if err != nil {
				it.err = err
				return false
			}
			it.value = append(it.value[:0], value...)
		} else {
			it.value = append(it.value[:0], it.merged.Value()...)
		}
		it.valid = true
		return true
	}
	it.err = it.merged.Err()
	return false
}

// First positions at the first user key.
func (it *DBIter) First() bool {
	if it.v == nil {
		return false
	}
	it.skipKey = nil
	it.merged.First()
	return it.findVisible()
}

// SeekGE positions at the first user key >= ukey.
func (it *DBIter) SeekGE(ukey []byte) bool {
	if it.v == nil {
		return false
	}
	it.skipKey = nil
	it.merged.Seek(keys.MakeInternalKey(nil, ukey, it.seq, keys.KindSeekMax))
	return it.findVisible()
}

// Next advances to the next user key.
func (it *DBIter) Next() bool {
	if !it.valid {
		return false
	}
	it.merged.Next()
	return it.findVisible()
}

// Valid reports whether the iterator is positioned at an entry.
func (it *DBIter) Valid() bool { return it.valid && it.err == nil }

// Key returns the current user key (valid until the next move).
func (it *DBIter) Key() []byte { return it.key }

// Value returns the current value (valid until the next move).
func (it *DBIter) Value() []byte { return it.value }

// Err returns the first error encountered.
func (it *DBIter) Err() error { return it.err }

// Close releases the iterator's table references, version pin, and
// value-GC pin; reclaims the pins were holding back run before returning.
// It reports the first failure closing a source.
func (it *DBIter) Close() error {
	if it.v == nil {
		return nil
	}
	err := it.merged.Close()
	it.valid = false
	db := it.db
	db.mu.Lock()
	it.v.Unref()
	it.v = nil
	db.iterPins.Remove(it.pin)
	it.pin = nil
	ops := db.takeReclaimsLocked(false)
	db.mu.Unlock()
	db.execReclaims(ops)
	return err
}
