package core

import (
	"fmt"

	"github.com/bolt-lsm/bolt/internal/iterator"
	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/sstable"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// compactionReadahead is the sequential read chunk used by compaction
// input iterators so large merges do not pay a device op per block.
const compactionReadahead = 512 << 10

// tableOutput streams sorted entries into output tables, implementing both
// physical layouts:
//
//   - Legacy (LevelDB/RocksDB/PebblesDB): each table is its own file and is
//     fsynced when cut — one barrier per SSTable.
//   - Compaction file (BoLT): all tables of one flush/compaction share a
//     single physical file as logical SSTables; the file is fsynced once
//     in finish — one barrier per compaction.
//
// Tables are cut at the size target, at settled-compaction cut points (so
// no output range spans a promoted table), and at guard keys for
// fragmented output levels. Cuts only happen at user-key boundaries so all
// versions of a key stay in one table.
type tableOutput struct {
	db          *DB
	outputLevel int
	cutPoints   [][]byte
	cutIdx      int

	// The physical file under write: f is nil between files, phys is its
	// number and off the offset the next table starts at. A legacy table's
	// file carries the table's own number.
	f    vfs.File
	phys uint64
	off  int64

	// Current table under construction. w is nil between tables; tw is the
	// one writer every table of this output is built with, so its buffers
	// are paid for once per flush or compaction.
	w      *sstable.Writer
	tw     *sstable.Writer
	curNum uint64

	lastUser []byte
	metas    []*manifest.FileMeta
}

func (db *DB) newTableOutput(outputLevel int, cutPoints [][]byte) *tableOutput {
	return &tableOutput{db: db, outputLevel: outputLevel, cutPoints: cutPoints}
}

// allocFileNum grabs a file number under the engine mutex.
func (db *DB) allocFileNum() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.vs.NextFileNum()
}

func (o *tableOutput) targetSize() int64 { return o.db.cfg.outputTableBytes() }

// add appends one entry, cutting tables at boundaries as needed.
func (o *tableOutput) add(ikey keys.InternalKey, value []byte) error {
	uk := ikey.UserKey()
	newUser := o.lastUser == nil || keys.CompareUser(uk, o.lastUser) != 0
	if newUser && o.w != nil && !o.w.Empty() {
		cut := o.w.EstimatedSize() >= o.targetSize()
		for o.cutIdx < len(o.cutPoints) && keys.CompareUser(o.cutPoints[o.cutIdx], uk) <= 0 {
			cut = true
			o.cutIdx++
		}
		if o.db.cfg.Fragmented && o.outputLevel >= 1 &&
			o.db.picker.Opts.IsGuard(uk, o.outputLevel) {
			cut = true
		}
		if cut {
			if err := o.cutTable(); err != nil {
				return err
			}
		}
	}
	if o.w == nil {
		if err := o.startTable(); err != nil {
			return err
		}
	}
	o.lastUser = append(o.lastUser[:0], uk...)
	return o.w.Add(ikey, value)
}

// startTable allocates the next table's number and, between files, opens
// the physical file it is written to: a compaction file takes a number of
// its own after its first table's, a legacy table's file takes the table's.
func (o *tableOutput) startTable() error {
	o.curNum = o.db.allocFileNum()
	if o.f == nil {
		o.phys = o.curNum
		if o.db.cfg.compactionFileMode() {
			o.phys = o.db.allocFileNum()
		}
		f, err := o.db.fs.Create(manifest.TableFileName(o.phys))
		if err != nil {
			return fmt.Errorf("core: create table file %d: %w", o.phys, err)
		}
		o.f, o.off = f, 0
	}
	if o.tw == nil {
		o.tw = sstable.NewWriter(o.f, o.off, o.db.sstConfig())
	} else {
		o.tw.Reset(o.f, o.off)
	}
	o.w = o.tw
	return nil
}

// cutTable finishes the current table. A legacy table's file is synced and
// closed here — the per-SSTable barrier; a compaction file stays open for
// the next table, and finish pays its single barrier.
func (o *tableOutput) cutTable() error {
	info, err := o.w.Finish()
	if err != nil {
		return err
	}
	o.w = nil
	meta := &manifest.FileMeta{
		Num:      o.curNum,
		PhysNum:  o.phys,
		Offset:   info.Base,
		Size:     info.Size,
		Smallest: info.Smallest,
		Largest:  info.Largest,
	}
	meta.AllowedSeeks.Store(max(info.Size/16384, 100))
	o.metas = append(o.metas, meta)
	o.off += info.Size
	if o.phys == o.curNum {
		return o.closeFile()
	}
	return nil
}

// closeFile makes the physical file under write durable and closes it.
func (o *tableOutput) closeFile() error {
	f := o.f
	o.f = nil
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("core: sync table file %d: %w", o.phys, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("core: close table file %d: %w", o.phys, err)
	}
	return nil
}

// finish cuts the last table and makes everything durable: the one
// barrier of a compaction file, or nothing more for legacy tables, each
// synced when cut.
func (o *tableOutput) finish() ([]*manifest.FileMeta, error) {
	if o.w != nil && !o.w.Empty() {
		if err := o.cutTable(); err != nil {
			return nil, err
		}
	}
	o.w = nil
	if o.f != nil {
		if err := o.closeFile(); err != nil {
			return nil, err
		}
	}
	return o.metas, nil
}

// abort releases resources after an error; partially written files are
// left for orphan collection (they are not referenced by any edit).
func (o *tableOutput) abort() {
	if o.f != nil {
		_ = o.f.Close()
		o.f = nil
	}
}

// writeTables drains it into level-appropriate output tables, keeping
// every entry (used by flush, where no version may be dropped).
func (db *DB) writeTables(it iterator.Iterator, outputLevel int) ([]*manifest.FileMeta, error) {
	out := db.newTableOutput(outputLevel, nil)
	for ok := it.First(); ok; ok = it.Next() {
		if err := out.add(it.Key(), it.Value()); err != nil {
			out.abort()
			return nil, err
		}
	}
	if err := it.Err(); err != nil {
		out.abort()
		return nil, err
	}
	if err := it.Close(); err != nil {
		out.abort()
		return nil, err
	}
	return out.finish()
}
