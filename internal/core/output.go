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

	// Compaction-file mode state.
	cfFile   vfs.File
	cfPhys   uint64
	cfOffset int64

	// Current table under construction. w is nil between tables; tw is the
	// one writer every table of this output is built with, so its buffers
	// are paid for once per flush or compaction.
	w       *sstable.Writer
	tw      *sstable.Writer
	curFile vfs.File // legacy mode: the table's own file
	curNum  uint64

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

func (o *tableOutput) startTable() error {
	num := o.db.allocFileNum()
	if o.db.cfg.compactionFileMode() {
		if o.cfFile == nil {
			o.cfPhys = o.db.allocFileNum()
			f, err := o.db.fs.Create(manifest.TableFileName(o.cfPhys))
			if err != nil {
				return fmt.Errorf("core: create compaction file: %w", err)
			}
			o.cfFile = f
			o.cfOffset = 0
		}
		o.curNum = num
		o.resetWriter(o.cfFile, o.cfOffset)
		return nil
	}
	f, err := o.db.fs.Create(manifest.TableFileName(num))
	if err != nil {
		return fmt.Errorf("core: create table file: %w", err)
	}
	o.curFile = f
	o.curNum = num
	o.resetWriter(f, 0)
	return nil
}

// resetWriter points the output's writer at a new table.
func (o *tableOutput) resetWriter(f vfs.File, base int64) {
	if o.tw == nil {
		o.tw = sstable.NewWriter(f, base, o.db.sstConfig())
	} else {
		o.tw.Reset(f, base)
	}
	o.w = o.tw
}

// cutTable finishes the current table. In legacy mode this is where the
// per-SSTable barrier is paid; in compaction-file mode no barrier happens
// here — finish pays a single one.
func (o *tableOutput) cutTable() error {
	info, err := o.w.Finish()
	if err != nil {
		return err
	}
	o.w = nil
	meta := &manifest.FileMeta{
		Num:      o.curNum,
		Offset:   info.Base,
		Size:     info.Size,
		Smallest: info.Smallest,
		Largest:  info.Largest,
	}
	seeks := info.Size / 16384
	if seeks < 100 {
		seeks = 100
	}
	meta.AllowedSeeks.Store(seeks)

	if o.db.cfg.compactionFileMode() {
		meta.PhysNum = o.cfPhys
		o.cfOffset += info.Size
	} else {
		meta.PhysNum = o.curNum
		if err := o.curFile.Sync(); err != nil {
			return fmt.Errorf("core: sync table %d: %w", o.curNum, err)
		}
		if err := o.curFile.Close(); err != nil {
			return fmt.Errorf("core: close table %d: %w", o.curNum, err)
		}
		o.curFile = nil
	}
	o.metas = append(o.metas, meta)
	return nil
}

// finish cuts the last table and makes everything durable: one barrier for
// the shared compaction file (BoLT), or nothing extra in legacy mode (each
// table already synced at cut).
func (o *tableOutput) finish() ([]*manifest.FileMeta, error) {
	if o.w != nil && !o.w.Empty() {
		if err := o.cutTable(); err != nil {
			return nil, err
		}
	}
	o.w = nil
	if o.cfFile != nil {
		if err := o.cfFile.Sync(); err != nil {
			return nil, fmt.Errorf("core: sync compaction file %d: %w", o.cfPhys, err)
		}
		if err := o.cfFile.Close(); err != nil {
			return nil, fmt.Errorf("core: close compaction file %d: %w", o.cfPhys, err)
		}
		o.cfFile = nil
	}
	return o.metas, nil
}

// abort releases resources after an error; partially written files are
// left for orphan collection (they are not referenced by any edit).
func (o *tableOutput) abort() {
	if o.curFile != nil {
		_ = o.curFile.Close()
		o.curFile = nil
	}
	if o.cfFile != nil {
		_ = o.cfFile.Close()
		o.cfFile = nil
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
