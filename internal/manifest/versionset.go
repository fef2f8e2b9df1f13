package manifest

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/logrec"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// maxManifestSize triggers MANIFEST rotation (compaction of the edit log
// into a fresh snapshot).
const maxManifestSize = 4 << 20

// VersionSet owns the current version, the file-number and sequence
// allocators, and the MANIFEST log. All mutating methods must be called
// with the engine's mutex held; version pinning (Ref/Unref) is safe from
// any goroutine.
type VersionSet struct {
	fs vfs.FS //boltvet:guardedby none -- immutable after Create/Recover

	current     *Version    //boltvet:guardedby none -- externally serialized: mutated only under the engine mutex (see type doc)
	live        versionList //boltvet:guardedby none -- externally serialized under the engine mutex; each Version refcounts itself
	versionSeq  uint64      //boltvet:guardedby none -- id of the last version built; externally serialized under the engine mutex
	nextFileNum uint64      //boltvet:guardedby none -- externally serialized under the engine mutex
	lastSeq     uint64      //boltvet:guardedby none -- externally serialized under the engine mutex
	logNum      uint64      //boltvet:guardedby none -- WAL fully reflected in tables; engine-mutex serialized

	manifestNum  uint64         //boltvet:guardedby none -- externally serialized: commits hold the engine's manifestMu
	manifestFile vfs.File       //boltvet:guardedby none -- externally serialized: commits hold the engine's manifestMu
	manifestLog  *logrec.Writer //boltvet:guardedby none -- externally serialized: commits hold the engine's manifestMu
	manifestSize int64          //boltvet:guardedby none -- externally serialized: commits hold the engine's manifestMu
	// forceRotate makes the next Prepare rotate regardless of size: after
	// a failed CommitPrepared the MANIFEST tail may hold a torn or
	// unsynced record, and a later successful sync of the same file would
	// make the failed record durable too.
	forceRotate bool //boltvet:guardedby none -- externally serialized under the engine mutex

	compactPointers [NumLevels]keys.InternalKey //boltvet:guardedby none -- externally serialized under the engine mutex
}

// Create initializes a brand-new database in fs: an empty MANIFEST plus
// CURRENT. It returns the resulting version set.
func Create(fs vfs.FS) (*VersionSet, error) {
	vs := &VersionSet{fs: fs, nextFileNum: 2, manifestNum: 1}
	v := NewVersion([NumLevels][]*FileMeta{})
	v.vs = vs
	v.Ref()
	vs.live.add(v)
	vs.current = v

	if err := vs.newManifest(); err != nil {
		return nil, err
	}
	return vs, nil
}

// Recover loads the version state named by CURRENT and starts a fresh
// MANIFEST for subsequent edits.
func Recover(fs vfs.FS) (*VersionSet, error) {
	return recover0(fs, false)
}

// Load loads the version state read-only: no MANIFEST rotation, no writes
// of any kind. LogAndApply must not be called on the result; inspection
// tools use this.
func Load(fs vfs.FS) (*VersionSet, error) {
	return recover0(fs, true)
}

func recover0(fs vfs.FS, readOnly bool) (*VersionSet, error) {
	currentData, err := vfs.ReadWholeFile(fs, CurrentFileName)
	if err != nil {
		return nil, fmt.Errorf("manifest: read CURRENT: %w", err)
	}
	name := strings.TrimSpace(string(currentData))
	kind, num, ok := ParseFileName(name)
	if !ok || kind != KindManifest {
		return nil, fmt.Errorf("%w: CURRENT names %q", ErrCorrupt, name)
	}

	vs := &VersionSet{fs: fs, manifestNum: num, nextFileNum: 2}
	builder := newVersionBuilder(nil)
	data, err := vfs.ReadWholeFile(fs, name)
	if err != nil {
		return nil, fmt.Errorf("manifest: read %q: %w", name, err)
	}
	r := logrec.NewReader(data)
	sawAny := false
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("manifest: replay %q: %w", name, err)
		}
		edit, err := DecodeEdit(rec)
		if err != nil {
			return nil, fmt.Errorf("manifest: decode edit: %w", err)
		}
		sawAny = true
		builder.apply(edit)
		if edit.LogNum != nil {
			vs.logNum = *edit.LogNum
		}
		if edit.NextFileNum != nil {
			vs.nextFileNum = *edit.NextFileNum
		}
		if edit.LastSeq != nil {
			vs.lastSeq = *edit.LastSeq
		}
		for _, cp := range edit.CompactPointers {
			if cp.Level < NumLevels {
				vs.compactPointers[cp.Level] = cp.Key
			}
		}
	}
	if !sawAny {
		return nil, fmt.Errorf("%w: MANIFEST %q holds no edits", ErrCorrupt, name)
	}
	v := builder.finish(vs)
	v.Ref()
	vs.live.add(v)
	vs.current = v

	if readOnly {
		return vs, nil
	}
	// Always start a fresh MANIFEST on open: the new snapshot is written
	// and synced before CURRENT moves, so a crash at any point leaves a
	// readable manifest. (Appending in place would require truncate-and-
	// rewrite under this vfs, which is not crash-safe.)
	if err := vs.rotateManifest(); err != nil {
		return nil, err
	}
	return vs, nil
}

// Current returns the current version (not pinned; callers Ref it while
// holding the engine mutex).
func (vs *VersionSet) Current() *Version { return vs.current }

// NextFileNum allocates a file number.
func (vs *VersionSet) NextFileNum() uint64 {
	n := vs.nextFileNum
	vs.nextFileNum++
	return n
}

// PeekFileNum returns the next file number without allocating.
func (vs *VersionSet) PeekFileNum() uint64 { return vs.nextFileNum }

// MarkFileNumUsed raises the allocator above an externally observed number
// (used when WAL files survive recovery).
func (vs *VersionSet) MarkFileNumUsed(n uint64) {
	if n >= vs.nextFileNum {
		vs.nextFileNum = n + 1
	}
}

// LastSeq returns the last allocated sequence number.
func (vs *VersionSet) LastSeq() uint64 { return vs.lastSeq }

// SetLastSeq records the last allocated sequence number.
func (vs *VersionSet) SetLastSeq(n uint64) { vs.lastSeq = n }

// LogNum returns the WAL number fully reflected in tables.
func (vs *VersionSet) LogNum() uint64 { return vs.logNum }

// CompactPointer returns the round-robin cursor of a level.
func (vs *VersionSet) CompactPointer(level int) keys.InternalKey {
	return vs.compactPointers[level]
}

// OldestLiveID returns the ID of the oldest version still pinned (the
// current version when no reader holds an older one). Version IDs increase
// with every version built, so a table deleted by the edit that produced
// version n is referenced by no live version once OldestLiveID() >= n:
// obsolete-file collection needs one number per pass, not the set of every
// table of every live version.
func (vs *VersionSet) OldestLiveID() uint64 { return vs.live.oldestID() }

// removeVersion is called by Version.Unref at refcount zero.
func (vs *VersionSet) removeVersion(v *Version) { vs.live.remove(v) }

// PreparedEdit is an edit that has been applied in memory but not yet made
// durable. The engine uses the three-phase Prepare / CommitPrepared /
// Install flow so the MANIFEST fsync (the second barrier of the commit
// protocol) runs without the engine mutex held:
//
//	db.mu held:   p := vs.Prepare(edit)
//	db.mu free:   err := vs.CommitPrepared(p)   // append + fsync (none for a move)
//	db.mu held:   vs.Install(p)
//
// At most one prepared edit may be in flight (the engine guards this with
// its manifest-writer mutex).
type PreparedEdit struct {
	version   *Version
	record    []byte
	moveOnly  bool // appended without a barrier (see VersionEdit.MoveOnly)
	rotate    bool
	rotateNum uint64
}

// Version returns the version the edit produces (not yet installed).
func (p *PreparedEdit) Version() *Version { return p.version }

// Prepare stamps edit with allocator state, updates the in-memory cursors,
// and builds the successor version. Call with the engine mutex held.
func (vs *VersionSet) Prepare(edit *VersionEdit) *PreparedEdit {
	if edit.LogNum != nil {
		vs.logNum = *edit.LogNum
	}
	edit.SetNextFileNum(vs.nextFileNum)
	edit.SetLastSeq(vs.lastSeq)
	for _, cp := range edit.CompactPointers {
		if cp.Level < NumLevels {
			vs.compactPointers[cp.Level] = cp.Key
		}
	}
	builder := newVersionBuilder(vs.current)
	builder.apply(edit)
	p := &PreparedEdit{
		version:  builder.finish(vs),
		record:   edit.Encode(),
		moveOnly: edit.MoveOnly(),
		rotate:   vs.manifestSize >= maxManifestSize || vs.forceRotate,
	}
	if p.rotate {
		vs.forceRotate = false
		// Allocate the new MANIFEST number and prebuild the snapshot
		// record here, while the caller holds the engine mutex;
		// CommitPrepared runs without it and must not touch allocator
		// state or the current version.
		p.rotateNum = vs.nextFileNum
		vs.nextFileNum++
		p.record = vs.snapshotEdit(p.version).Encode()
	}
	return p
}

// CommitPrepared makes the edit durable: one MANIFEST append plus fsync,
// or — when the MANIFEST has grown past its rotation threshold — a fresh
// MANIFEST holding a snapshot of the edit's resulting version. A
// move-only edit is appended without the fsync: the next synced record (a
// flush's, a rewrite compaction's, a rotation's snapshot) makes it
// durable, since an fsync covers every byte appended before it. A crash
// before then loses only moves, and replay stops at the torn tail with
// each table at its old level. No reclaim can depend on a lost move: a
// reclaim waits for the sync of the edit that deleted its table. Call
// without the engine mutex; vs.current must not change concurrently.
func (vs *VersionSet) CommitPrepared(p *PreparedEdit) error {
	if p.rotate {
		oldNum := vs.manifestNum
		vs.manifestNum = p.rotateNum
		if err := vs.writeNewManifest(p.record); err != nil {
			return err
		}
		if oldNum != vs.manifestNum {
			_ = vs.fs.Remove(ManifestFileName(oldNum))
		}
		return nil
	}
	if err := vs.manifestLog.WriteRecord(p.record); err != nil {
		return fmt.Errorf("manifest: append edit: %w", err)
	}
	vs.manifestSize += int64(len(p.record)) + 16
	if p.moveOnly {
		return nil
	}
	if err := vs.manifestFile.Sync(); err != nil {
		return fmt.Errorf("manifest: sync: %w", err)
	}
	return nil
}

// Install makes the committed version current. Call with the engine mutex
// held.
func (vs *VersionSet) Install(p *PreparedEdit) { vs.installVersion(p.version) }

// ForceRotate makes the next prepared edit write a fresh MANIFEST (with a
// full snapshot) instead of appending. The engine calls it after a failed
// CommitPrepared: re-appending a retried edit behind a possibly-torn tail
// could make both the failed and the retried record durable, and replay
// would then see a duplicate or corrupt edit. Call with the engine mutex
// held.
func (vs *VersionSet) ForceRotate() { vs.forceRotate = true }

// LogAndApply is the single-threaded convenience combining Prepare,
// CommitPrepared, and Install.
func (vs *VersionSet) LogAndApply(edit *VersionEdit) error {
	p := vs.Prepare(edit)
	if err := vs.CommitPrepared(p); err != nil {
		return err
	}
	vs.Install(p)
	return nil
}

func (vs *VersionSet) installVersion(v *Version) {
	v.Ref()
	vs.live.add(v)
	if vs.current != nil {
		vs.current.Unref()
	}
	vs.current = v
}

// snapshotEdit encodes the entire state of v as one edit.
func (vs *VersionSet) snapshotEdit(v *Version) *VersionEdit {
	edit := &VersionEdit{}
	edit.SetLogNum(vs.logNum)
	edit.SetNextFileNum(vs.nextFileNum)
	edit.SetLastSeq(vs.lastSeq)
	for level := 0; level < NumLevels; level++ {
		if cp := vs.compactPointers[level]; cp != nil {
			edit.CompactPointers = append(edit.CompactPointers, CompactPointer{Level: level, Key: cp})
		}
		for _, f := range v.Levels[level] {
			edit.AddFile(level, f)
		}
	}
	// Quarantine marks must survive rotation: a snapshot that dropped them
	// would let a rotted table serve silent garbage after the next open.
	for _, num := range v.Quarantined() {
		edit.QuarantineFile(num)
	}
	// Value-log segments re-emit their absolute state; against the fresh
	// builder's zero state the monotonic merge reproduces it exactly.
	for _, s := range v.VLogSegments() {
		edit.AddVLogSegment(VLogSegmentEdit{
			Num: s.Num, Size: s.Size, GCOffset: s.GCOffset, GarbageDelta: s.Garbage,
		})
	}
	return edit
}

// newManifest writes a fresh MANIFEST containing a snapshot of the current
// state, syncs it, points CURRENT at it, and syncs the directory.
func (vs *VersionSet) newManifest() error {
	return vs.writeNewManifest(vs.snapshotEdit(vs.current).Encode())
}

// writeNewManifest creates MANIFEST-<manifestNum> holding the given
// snapshot record, syncs it, and switches CURRENT.
func (vs *VersionSet) writeNewManifest(rec []byte) error {
	name := ManifestFileName(vs.manifestNum)
	f, err := vs.fs.Create(name)
	if err != nil {
		return fmt.Errorf("manifest: create %q: %w", name, err)
	}
	lw := logrec.NewWriter(f)
	if err := lw.WriteRecord(rec); err != nil {
		_ = f.Close()
		return fmt.Errorf("manifest: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("manifest: sync %q: %w", name, err)
	}
	if err := setCurrent(vs.fs, name); err != nil {
		_ = f.Close()
		return err
	}
	if vs.manifestFile != nil {
		// Best effort: the superseded MANIFEST's unsynced tail holds at
		// most move-only records, and the snapshot just synced covers them.
		_ = vs.manifestFile.Close()
	}
	vs.manifestFile = f
	vs.manifestLog = lw
	vs.manifestSize = int64(len(rec)) + 16
	return nil
}

// rotateManifest switches to a new MANIFEST file and removes the old one.
func (vs *VersionSet) rotateManifest() error {
	oldNum := vs.manifestNum
	vs.manifestNum = vs.NextFileNum()
	if err := vs.newManifest(); err != nil {
		return err
	}
	if oldNum != vs.manifestNum {
		// Best effort: the old manifest is obsolete once CURRENT moved.
		_ = vs.fs.Remove(ManifestFileName(oldNum))
	}
	return nil
}

// setCurrent atomically points CURRENT at manifestName.
func setCurrent(fs vfs.FS, manifestName string) error {
	tmp := manifestName + ".tmp"
	if err := vfs.WriteFile(fs, tmp, []byte(manifestName+"\n")); err != nil {
		return fmt.Errorf("manifest: write CURRENT tmp: %w", err)
	}
	if err := fs.Rename(tmp, CurrentFileName); err != nil {
		return fmt.Errorf("manifest: rename CURRENT: %w", err)
	}
	if err := fs.SyncDir(); err != nil {
		return fmt.Errorf("manifest: sync dir: %w", err)
	}
	return nil
}

// Close releases the MANIFEST file handle.
func (vs *VersionSet) Close() error {
	if vs.manifestFile != nil {
		err := vs.manifestFile.Close()
		vs.manifestFile = nil
		return err
	}
	return nil
}
