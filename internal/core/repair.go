package core

import (
	"fmt"
	"sort"

	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/sstable"
	"github.com/bolt-lsm/bolt/internal/vfs"
	"github.com/bolt-lsm/bolt/internal/vlog"
)

// RepairReport summarizes what Repair salvaged.
type RepairReport struct {
	// TablesRecovered is the number of (logical) tables salvaged.
	TablesRecovered int
	// TablesLost counts table regions that failed validation and were
	// abandoned.
	TablesLost int
	// FilesScanned is the number of physical table files examined.
	FilesScanned int
	// Entries is the total entry count across salvaged tables.
	Entries int
	// VLogSegments is the number of value-log segments re-registered
	// (their valid CRC-walked prefix) in the rebuilt MANIFEST.
	VLogSegments int
	// MaxSeq is the highest sequence number observed.
	MaxSeq keys.Seq
}

// Repair rebuilds a database's MANIFEST from its physical table files,
// for use when CURRENT or the MANIFEST is lost or corrupt. It walks each
// physical file backwards from its end — a table's footer pins the index
// block as the last block before it, so the table's total size (and hence
// the previous table's boundary) is recoverable without any metadata.
// Every salvaged table is placed in level 0; point reads tolerate this
// because level-0 lookups select versions by sequence number, and normal
// compaction re-sorts the tree afterwards.
//
// Limitations: inside a BoLT compaction file, tables *before* a
// hole-punched (reclaimed) region cannot be chained to and are lost —
// their contents were already compacted into newer files, so this loses
// only already-dead data unless the database was corrupted mid-write.
// WAL files are left in place; the rebuilt MANIFEST records log number 0
// so recovery replays every log present.
func Repair(fs vfs.FS, cfg Config) (*RepairReport, error) {
	cfg.ApplyDefaults()
	report := &RepairReport{}

	names, err := fs.List()
	if err != nil {
		return nil, fmt.Errorf("core: repair list: %w", err)
	}

	type salvaged struct {
		meta   *manifest.FileMeta
		maxSeq keys.Seq
	}
	var tables []salvaged
	var maxPhys uint64
	var salvagedFiles []string
	var vlogSegs []manifest.VLogSegmentEdit

	for _, name := range names {
		kind, num, ok := manifest.ParseFileName(name)
		if !ok {
			continue
		}
		switch kind {
		case manifest.KindManifest, manifest.KindCurrent, manifest.KindTemp:
			// Stale or damaged metadata: remove; a fresh MANIFEST follows.
			_ = fs.Remove(name)
			continue
		case manifest.KindValueLog:
			// Re-register the segment's CRC-valid prefix so salvaged
			// pointer entries resolve again. The GC watermark restarts at
			// zero: collecting already-dead ranges again is wasted work at
			// worst, never wrong.
			if num > maxPhys {
				maxPhys = num
			}
			report.FilesScanned++
			valid, err := vlogValidLength(fs, name)
			if err != nil {
				return nil, err
			}
			if valid > 0 {
				vlogSegs = append(vlogSegs, manifest.VLogSegmentEdit{Num: num, Size: valid})
				salvagedFiles = append(salvagedFiles, name)
			}
			continue
		case manifest.KindTable:
		default:
			continue
		}
		if num > maxPhys {
			maxPhys = num
		}
		report.FilesScanned++
		salv, lost, err := salvageFile(fs, name, num)
		if err != nil {
			return nil, err
		}
		report.TablesLost += lost
		if len(salv) > 0 {
			salvagedFiles = append(salvagedFiles, name)
		}
		for _, s := range salv {
			tables = append(tables, salvaged{meta: s.meta, maxSeq: s.maxSeq})
			report.Entries += int(s.entries)
			if s.maxSeq > report.MaxSeq {
				report.MaxSeq = s.maxSeq
			}
		}
	}

	// First barrier before the second: the salvaged bytes were readable,
	// but after a crash readable does not mean durable (they may exist in
	// the page cache only). Sync every physical file the repaired MANIFEST
	// is about to validate before LogAndApply pays the MANIFEST barrier.
	for _, name := range salvagedFiles {
		f, err := fs.Open(name)
		if err != nil {
			return nil, fmt.Errorf("core: repair reopen %q: %w", name, err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("core: repair sync %q: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("core: repair close %q: %w", name, err)
		}
	}
	report.TablesRecovered = len(tables)

	// Order by newest data last so the (cosmetic) level-0 ordering matches
	// flush recency; renumber logical tables above every physical number.
	sort.Slice(tables, func(i, j int) bool { return tables[i].maxSeq < tables[j].maxSeq })
	nextNum := maxPhys + 1
	edit := &manifest.VersionEdit{}
	for _, t := range tables {
		t.meta.Num = nextNum
		nextNum++
		edit.AddFile(0, t.meta)
	}
	for _, s := range vlogSegs {
		edit.AddVLogSegment(s)
	}
	report.VLogSegments = len(vlogSegs)

	vs, err := manifest.Create(fs)
	if err != nil {
		return nil, fmt.Errorf("core: repair manifest: %w", err)
	}
	defer vs.Close()
	vs.MarkFileNumUsed(nextNum)
	vs.SetLastSeq(uint64(report.MaxSeq))
	logNum := uint64(0)
	edit.LogNum = &logNum
	if err := vs.LogAndApply(edit); err != nil {
		return nil, fmt.Errorf("core: repair commit: %w", err)
	}
	return report, nil
}

// vlogValidLength returns the CRC-walked valid prefix of a value-log
// segment. Hole-punched payloads are traversed; a torn or rotted header
// stops the walk. A segment that cannot be read fails the repair rather
// than being dropped with every value it holds.
func vlogValidLength(fs vfs.FS, name string) (int64, error) {
	f, err := fs.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return 0, err
	}
	return vlog.ValidLength(f, 0, size)
}

type salvagedTable struct {
	meta    *manifest.FileMeta
	maxSeq  keys.Seq
	entries int64
}

// salvageFile walks physical table file name backwards, validating each
// table region fully (every block checksum, every entry).
func salvageFile(fs vfs.FS, name string, physNum uint64) ([]salvagedTable, int, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, 0, fmt.Errorf("core: repair open %s: %w", name, err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, 1, nil
	}

	var out []salvagedTable
	lost := 0
	end := size
	for end >= sstable.FooterSize {
		base, ok := sstable.TableStart(f, end)
		if !ok {
			// No valid table ends here: whatever precedes is unreachable.
			if end > 0 {
				lost++
			}
			break
		}
		s, err := validateTable(f, physNum, base, end-base)
		if err != nil {
			lost++
			break
		}
		out = append(out, s)
		end = base
	}
	return out, lost, nil
}

// validateTable opens and fully verifies the table at (base, size),
// returning its reconstructed metadata. Verification is VerifyTable's —
// every block checksum (bloom included), restart structure, key ordering,
// and the footer entry count — not just the open-time header checks, so a
// table with a rotted data block is abandoned rather than re-committed.
func validateTable(f vfs.File, physNum uint64, base, size int64) (salvagedTable, error) {
	r, err := sstable.OpenReader(f, 0, physNum, base, size, nil)
	if err != nil {
		return salvagedTable{}, err
	}
	if err := r.VerifyTable(); err != nil {
		return salvagedTable{}, err
	}
	it := r.NewIter(sstable.IterOpts{Readahead: compactionReadahead})
	defer it.Close()
	var (
		smallest, largest keys.InternalKey
		maxSeq            keys.Seq
		entries           int64
	)
	for ok := it.First(); ok; ok = it.Next() {
		ik := it.Key()
		if smallest == nil {
			smallest = append(keys.InternalKey(nil), ik...)
		}
		largest = append(largest[:0], ik...)
		if s := ik.Seq(); s > maxSeq {
			maxSeq = s
		}
		entries++
	}
	if err := it.Err(); err != nil {
		return salvagedTable{}, err
	}
	if entries == 0 {
		return salvagedTable{}, fmt.Errorf("core: repair: empty table region")
	}
	meta := &manifest.FileMeta{
		PhysNum:  physNum,
		Offset:   base,
		Size:     size,
		Smallest: smallest,
		Largest:  append(keys.InternalKey(nil), largest...),
	}
	meta.AllowedSeeks.Store(100)
	return salvagedTable{meta: meta, maxSeq: maxSeq, entries: entries}, nil
}
