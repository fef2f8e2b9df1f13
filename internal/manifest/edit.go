package manifest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/bolt-lsm/bolt/internal/keys"
)

// ErrCorrupt reports a malformed version edit or MANIFEST.
var ErrCorrupt = errors.New("manifest: corrupt")

// Edit record tags. The encoding follows LevelDB's tagged format; tag 9
// (added file) carries BoLT's extra fields — physical file number and
// offset — which the paper notes cost only a few bytes per logical SSTable.
const (
	tagLogNum         = 1
	tagNextFileNum    = 2
	tagLastSeq        = 3
	tagCompactPointer = 4
	tagDeletedFile    = 5
	tagAddedFile      = 9
	tagQuarantined    = 10
	tagVLogSegment    = 11
	tagVLogDeleted    = 12
)

// DeletedFile names one table removed by an edit.
type DeletedFile struct {
	Level int
	Num   uint64
}

// AddedFile names one table added by an edit.
type AddedFile struct {
	Level int
	Meta  *FileMeta
}

// VLogSegmentEdit updates one value-log segment's recorded state. Its
// semantics are a monotonic merge, not an overwrite, so concurrently
// prepared edits (a flush recording the segment's size, a compaction
// adding garbage from dropped pointers) compose in any order: the builder
// takes the max of Size and GCOffset and accumulates GarbageDelta
// (clamped at zero). A segment unknown to the builder is created first
// with zero state.
type VLogSegmentEdit struct {
	// Num is the segment's file number.
	Num uint64
	// Size is a lower bound on the segment's durable record bytes (a sync
	// happens at a record boundary, so it is also parseable length).
	Size int64
	// GCOffset is the garbage-collection watermark: everything below it
	// has been reclaimed (live records re-put, dead payloads punched).
	GCOffset int64
	// GarbageDelta adjusts the estimated dead bytes at or above GCOffset:
	// positive from compactions dropping pointer entries, negative when GC
	// advances the watermark past bytes it had counted.
	GarbageDelta int64
}

// CompactPointer records the round-robin compaction cursor of a level.
type CompactPointer struct {
	Level int
	Key   keys.InternalKey
}

// VersionEdit is one atomic mutation of the version state. It is encoded
// as a single MANIFEST record — the commit mark of a flush or compaction.
type VersionEdit struct {
	// LogNum, when set, is the WAL number whose contents are fully
	// reflected in the tables; older logs are obsolete.
	LogNum *uint64
	// NextFileNum, when set, advances the file-number allocator.
	NextFileNum *uint64
	// LastSeq, when set, records the highest durable sequence number.
	LastSeq *uint64
	// CompactPointers update per-level compaction cursors.
	CompactPointers []CompactPointer
	// Deleted lists tables this edit invalidates.
	Deleted []DeletedFile
	// Added lists tables this edit validates.
	Added []AddedFile
	// Quarantined lists table numbers this edit marks corrupt: reads
	// overlapping them fail with a range error instead of serving silent
	// garbage, until a salvage compaction deletes them (deletion is the
	// unquarantine — there is no separate clearing record).
	Quarantined []uint64
	// VLogSegments merge value-log segment state (see VLogSegmentEdit).
	VLogSegments []VLogSegmentEdit
	// VLogDeleted lists value-log segments this edit removes (fully
	// garbage-collected; the file is deleted once no reader can need it).
	VLogDeleted []uint64
}

// SetLogNum records the active WAL number.
func (e *VersionEdit) SetLogNum(n uint64) { e.LogNum = &n }

// SetNextFileNum records the file-number allocator position.
func (e *VersionEdit) SetNextFileNum(n uint64) { e.NextFileNum = &n }

// SetLastSeq records the highest durable sequence number.
func (e *VersionEdit) SetLastSeq(n uint64) { e.LastSeq = &n }

// AddFile appends an added-table record.
func (e *VersionEdit) AddFile(level int, meta *FileMeta) {
	e.Added = append(e.Added, AddedFile{Level: level, Meta: meta})
}

// DeleteFile appends a deleted-table record.
func (e *VersionEdit) DeleteFile(level int, num uint64) {
	e.Deleted = append(e.Deleted, DeletedFile{Level: level, Num: num})
}

// MoveOnly reports whether e only moves existing tables between levels:
// it re-adds every table it deletes at another level, adds no other
// table, and carries no log number, compaction cursor, quarantine or
// value-log record. The file-number and sequence stamps every committed
// edit carries are ignored: a later edit that depends on them is synced
// and carries its own. A settled promotion's edit is move-only. Losing
// one in a crash leaves each table at its old level, a version the
// engine really had, so CommitPrepared appends it without a barrier.
func (e *VersionEdit) MoveOnly() bool {
	if len(e.Added) == 0 || len(e.Added) != len(e.Deleted) || e.LogNum != nil ||
		len(e.CompactPointers)+len(e.Quarantined)+len(e.VLogSegments)+len(e.VLogDeleted) > 0 {
		return false
	}
	for _, a := range e.Added {
		if !slices.ContainsFunc(e.Deleted, func(d DeletedFile) bool {
			return d.Num == a.Meta.Num && d.Level != a.Level
		}) {
			return false
		}
	}
	return true
}

// QuarantineFile appends a quarantined-table record.
func (e *VersionEdit) QuarantineFile(num uint64) {
	e.Quarantined = append(e.Quarantined, num)
}

// AddVLogSegment appends a value-log segment merge record.
func (e *VersionEdit) AddVLogSegment(s VLogSegmentEdit) {
	e.VLogSegments = append(e.VLogSegments, s)
}

// DeleteVLogSegment appends a value-log segment deletion record.
func (e *VersionEdit) DeleteVLogSegment(num uint64) {
	e.VLogDeleted = append(e.VLogDeleted, num)
}

// Encode serializes the edit.
func (e *VersionEdit) Encode() []byte {
	var buf []byte
	putBytes := func(b []byte) {
		buf = binary.AppendUvarint(buf, uint64(len(b)))
		buf = append(buf, b...)
	}
	if e.LogNum != nil {
		buf = binary.AppendUvarint(buf, tagLogNum)
		buf = binary.AppendUvarint(buf, *e.LogNum)
	}
	if e.NextFileNum != nil {
		buf = binary.AppendUvarint(buf, tagNextFileNum)
		buf = binary.AppendUvarint(buf, *e.NextFileNum)
	}
	if e.LastSeq != nil {
		buf = binary.AppendUvarint(buf, tagLastSeq)
		buf = binary.AppendUvarint(buf, *e.LastSeq)
	}
	for _, cp := range e.CompactPointers {
		buf = binary.AppendUvarint(buf, tagCompactPointer)
		buf = binary.AppendUvarint(buf, uint64(cp.Level))
		putBytes(cp.Key)
	}
	for _, d := range e.Deleted {
		buf = binary.AppendUvarint(buf, tagDeletedFile)
		buf = binary.AppendUvarint(buf, uint64(d.Level))
		buf = binary.AppendUvarint(buf, d.Num)
	}
	for _, a := range e.Added {
		m := a.Meta
		buf = binary.AppendUvarint(buf, tagAddedFile)
		buf = binary.AppendUvarint(buf, uint64(a.Level))
		buf = binary.AppendUvarint(buf, m.Num)
		buf = binary.AppendUvarint(buf, m.PhysNum)
		buf = binary.AppendUvarint(buf, uint64(m.Offset))
		buf = binary.AppendUvarint(buf, uint64(m.Size))
		putBytes(m.Smallest)
		putBytes(m.Largest)
		putBytes(m.Guard)
	}
	for _, num := range e.Quarantined {
		buf = binary.AppendUvarint(buf, tagQuarantined)
		buf = binary.AppendUvarint(buf, num)
	}
	for _, s := range e.VLogSegments {
		buf = binary.AppendUvarint(buf, tagVLogSegment)
		buf = binary.AppendUvarint(buf, s.Num)
		buf = binary.AppendUvarint(buf, uint64(s.Size))
		buf = binary.AppendUvarint(buf, uint64(s.GCOffset))
		// Zigzag: GarbageDelta is the one signed field.
		buf = binary.AppendUvarint(buf, uint64((s.GarbageDelta<<1)^(s.GarbageDelta>>63)))
	}
	for _, num := range e.VLogDeleted {
		buf = binary.AppendUvarint(buf, tagVLogDeleted)
		buf = binary.AppendUvarint(buf, num)
	}
	return buf
}

// DecodeEdit parses an encoded edit.
func DecodeEdit(data []byte) (*VersionEdit, error) {
	e := &VersionEdit{}
	p := 0
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data[p:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: bad varint at %d", ErrCorrupt, p)
		}
		p += n
		return v, nil
	}
	readBytes := func() ([]byte, error) {
		l, err := readUvarint()
		if err != nil {
			return nil, err
		}
		// Compare in uint64 space: a huge length must not wrap negative
		// when converted to int.
		if l > uint64(len(data)-p) {
			return nil, fmt.Errorf("%w: bytes overrun at %d", ErrCorrupt, p)
		}
		b := append([]byte(nil), data[p:p+int(l)]...)
		p += int(l)
		return b, nil
	}
	for p < len(data) {
		tag, err := readUvarint()
		if err != nil {
			return nil, err
		}
		switch tag {
		case tagLogNum:
			v, err := readUvarint()
			if err != nil {
				return nil, err
			}
			e.LogNum = &v
		case tagNextFileNum:
			v, err := readUvarint()
			if err != nil {
				return nil, err
			}
			e.NextFileNum = &v
		case tagLastSeq:
			v, err := readUvarint()
			if err != nil {
				return nil, err
			}
			e.LastSeq = &v
		case tagCompactPointer:
			lvl, err := readUvarint()
			if err != nil {
				return nil, err
			}
			key, err := readBytes()
			if err != nil {
				return nil, err
			}
			e.CompactPointers = append(e.CompactPointers, CompactPointer{Level: int(lvl), Key: key})
		case tagDeletedFile:
			lvl, err := readUvarint()
			if err != nil {
				return nil, err
			}
			num, err := readUvarint()
			if err != nil {
				return nil, err
			}
			if lvl >= NumLevels {
				return nil, fmt.Errorf("%w: deleted file level %d", ErrCorrupt, lvl)
			}
			e.Deleted = append(e.Deleted, DeletedFile{Level: int(lvl), Num: num})
		case tagAddedFile:
			lvl, err := readUvarint()
			if err != nil {
				return nil, err
			}
			if lvl >= NumLevels {
				return nil, fmt.Errorf("%w: added file level %d", ErrCorrupt, lvl)
			}
			m := &FileMeta{}
			if m.Num, err = readUvarint(); err != nil {
				return nil, err
			}
			if m.PhysNum, err = readUvarint(); err != nil {
				return nil, err
			}
			off, err := readUvarint()
			if err != nil {
				return nil, err
			}
			m.Offset = int64(off)
			size, err := readUvarint()
			if err != nil {
				return nil, err
			}
			m.Size = int64(size)
			sm, err := readBytes()
			if err != nil {
				return nil, err
			}
			m.Smallest = sm
			lg, err := readBytes()
			if err != nil {
				return nil, err
			}
			m.Largest = lg
			guard, err := readBytes()
			if err != nil {
				return nil, err
			}
			if len(guard) > 0 {
				m.Guard = guard
			}
			e.Added = append(e.Added, AddedFile{Level: int(lvl), Meta: m})
		case tagQuarantined:
			num, err := readUvarint()
			if err != nil {
				return nil, err
			}
			e.Quarantined = append(e.Quarantined, num)
		case tagVLogSegment:
			var s VLogSegmentEdit
			if s.Num, err = readUvarint(); err != nil {
				return nil, err
			}
			size, err := readUvarint()
			if err != nil {
				return nil, err
			}
			s.Size = int64(size)
			gcOff, err := readUvarint()
			if err != nil {
				return nil, err
			}
			s.GCOffset = int64(gcOff)
			zz, err := readUvarint()
			if err != nil {
				return nil, err
			}
			s.GarbageDelta = int64(zz>>1) ^ -int64(zz&1)
			e.VLogSegments = append(e.VLogSegments, s)
		case tagVLogDeleted:
			num, err := readUvarint()
			if err != nil {
				return nil, err
			}
			e.VLogDeleted = append(e.VLogDeleted, num)
		default:
			return nil, fmt.Errorf("%w: unknown tag %d", ErrCorrupt, tag)
		}
	}
	return e, nil
}
