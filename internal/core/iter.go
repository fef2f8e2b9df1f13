package core

import (
	"container/list"
	"sort"

	"github.com/bolt-lsm/bolt/internal/iterator"
	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/sstable"
)

// levelIter iterates a sorted (non-overlapping) level, opening one table
// at a time through the table cache. v is the pinned version the files
// came from (the enclosing DBIter holds the reference); it is consulted
// for quarantine marks so iterating into a corrupt table's span fails
// with the typed range error instead of serving garbage.
type levelIter struct {
	db    *DB
	v     *manifest.Version
	level int
	files []*manifest.FileMeta
	idx   int
	cur   iterator.Iterator
	err   error
}

var _ iterator.Iterator = (*levelIter)(nil)

func (db *DB) newLevelIter(v *manifest.Version, level int, files []*manifest.FileMeta) *levelIter {
	return &levelIter{db: db, v: v, level: level, files: files, idx: -1}
}

func (l *levelIter) open(i int) bool {
	l.closeCur()
	if i < 0 || i >= len(l.files) {
		l.idx = len(l.files)
		return false
	}
	f := l.files[i]
	if l.v.IsQuarantined(f.Num) {
		l.err = rangeCorruptError(l.level, f, nil)
		return false
	}
	r, release, err := l.db.tableCache.Get(f)
	if err != nil {
		l.err = l.db.maybeQuarantineRead(l.level, f, err)
		return false
	}
	l.idx = i
	l.cur = &releasingIter{Iterator: r.NewIter(sstable.IterOpts{}), release: release}
	return true
}

func (l *levelIter) closeCur() {
	if l.cur != nil {
		_ = l.cur.Close()
		l.cur = nil
	}
}

// First implements iterator.Iterator.
func (l *levelIter) First() bool {
	l.err = nil
	if !l.open(0) {
		return false
	}
	if l.cur.First() {
		return true
	}
	if l.err = l.cur.Err(); l.err != nil {
		return false
	}
	return l.nextFile()
}

// Seek implements iterator.Iterator.
func (l *levelIter) Seek(target keys.InternalKey) bool {
	l.err = nil
	idx := sort.Search(len(l.files), func(i int) bool {
		return keys.Compare(l.files[i].Largest, target) >= 0
	})
	if !l.open(idx) {
		return false
	}
	if l.cur.Seek(target) {
		return true
	}
	if l.err = l.cur.Err(); l.err != nil {
		return false
	}
	return l.nextFile()
}

func (l *levelIter) nextFile() bool {
	for {
		if !l.open(l.idx + 1) {
			return false
		}
		if l.cur.First() {
			return true
		}
		if l.err = l.cur.Err(); l.err != nil {
			return false
		}
	}
}

// Next implements iterator.Iterator.
func (l *levelIter) Next() bool {
	if !l.Valid() {
		return false
	}
	if l.cur.Next() {
		return true
	}
	if l.err = l.cur.Err(); l.err != nil {
		return false
	}
	return l.nextFile()
}

// Valid implements iterator.Iterator.
func (l *levelIter) Valid() bool {
	return l.err == nil && l.cur != nil && l.cur.Valid()
}

// Key implements iterator.Iterator.
func (l *levelIter) Key() keys.InternalKey {
	if !l.Valid() {
		return nil
	}
	return l.cur.Key()
}

// Value implements iterator.Iterator.
func (l *levelIter) Value() []byte {
	if !l.Valid() {
		return nil
	}
	return l.cur.Value()
}

// Err implements iterator.Iterator.
func (l *levelIter) Err() error { return l.err }

// Close implements iterator.Iterator.
func (l *levelIter) Close() error {
	l.closeCur()
	l.files = nil
	return nil
}

// DBIter is a forward iterator over the user-visible key space at a fixed
// sequence number: internal versions are collapsed to the newest visible
// one and tombstoned keys are skipped.
//
//boltvet:mustclose
type DBIter struct {
	db     *DB
	seq    keys.Seq
	v      *manifest.Version // pinned until Close
	pin    *list.Element     // entry in db.iterPins; holds back value-log punches
	merged *iterator.Merging

	key     []byte
	value   []byte
	skipKey []byte // user key whose remaining (older) versions are skipped
	valid   bool
	err     error
}

// NewIter returns an iterator over the database at snap (nil = latest
// committed state at creation time). Callers must Close it.
func (db *DB) NewIter(snap *Snapshot) *DBIter {
	db.mu.Lock()
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

	sources := []iterator.Iterator{mem.NewIter()}
	if imm != nil {
		sources = append(sources, imm.NewIter())
	}
	// Level 0 and fragmented levels: one iterator per (possibly
	// overlapping) table. Sorted levels: one lazy concatenating iterator.
	openTable := func(level int, f *manifest.FileMeta) iterator.Iterator {
		if v.IsQuarantined(f.Num) {
			return &iterator.Empty{ErrValue: rangeCorruptError(level, f, nil)}
		}
		r, release, err := db.tableCache.Get(f)
		if err != nil {
			return &iterator.Empty{ErrValue: db.maybeQuarantineRead(level, f, err)}
		}
		return &releasingIter{Iterator: r.NewIter(sstable.IterOpts{}), release: release}
	}
	for _, f := range v.Levels[0] {
		sources = append(sources, openTable(0, f))
	}
	for level := 1; level < manifest.NumLevels; level++ {
		files := v.Levels[level]
		if len(files) == 0 {
			continue
		}
		if db.cfg.Fragmented {
			for _, f := range files {
				sources = append(sources, openTable(level, f))
			}
		} else {
			sources = append(sources, db.newLevelIter(v, level, files))
		}
	}
	return &DBIter{db: db, seq: seq, v: v, pin: pin, merged: iterator.NewMerging(sources...)}
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
	it.skipKey = nil
	it.merged.First()
	return it.findVisible()
}

// SeekGE positions at the first user key >= ukey.
func (it *DBIter) SeekGE(ukey []byte) bool {
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
// value-GC pin; punches the pin was holding back run before returning.
func (it *DBIter) Close() error {
	if it.merged == nil {
		return nil
	}
	err := it.merged.Close()
	it.merged = nil
	it.valid = false
	db := it.db
	db.mu.Lock()
	it.v.Unref()
	db.iterPins.Remove(it.pin)
	it.pin = nil
	todo := db.takeReadyVLogPunchesLocked()
	db.mu.Unlock()
	db.execVLogPunches(todo)
	return err
}
