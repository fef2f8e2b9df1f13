// Package vlog implements the value log: CRC-framed append-only segments
// holding large values out of line, so the LSM tree carries only small
// (key → pointer) entries and compactions stop re-copying value bytes
// (WAL-time key-value separation, after BVLSM/WiscKey).
//
// A segment is a sequence of records:
//
//	record  := len(4, LE, payload bytes) | hcrc(4) | pcrc(4) | payload
//	payload := keyLen(uvarint) | key | value
//
// hcrc is the masked CRC32C of the length field alone and pcrc of the
// payload. Splitting the checksum keeps record *boundaries* recoverable
// after garbage collection punches a record's payload range: the 12-byte
// header survives the punch, so checksum walks (recovery, Repair, dump
// -verify) still parse the segment — a punched record shows a valid
// header with a failing payload CRC, which is exactly how a walk tells
// "reclaimed" from "torn tail" (invalid header).
//
// The key is stored alongside the value so a segment can be scanned
// standalone: garbage collection liveness-checks each record by looking
// its key up in the tree, without any side index.
package vlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync/atomic"

	"github.com/bolt-lsm/bolt/internal/vfs"
)

// HeaderSize is the fixed per-record header: length, header CRC, payload
// CRC, four bytes each.
const HeaderSize = 12

// ErrCorrupt reports a value-log record whose checksum does not match —
// bit rot, a torn tail, or a pointer into a reclaimed (punched) range.
var ErrCorrupt = errors.New("vlog: corrupt record")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maskCRC applies LevelDB's CRC masking (as internal/logrec does) so CRCs
// of data that itself contains CRCs stay well distributed.
func maskCRC(c uint32) uint32 { return ((c >> 15) | (c << 17)) + 0xa282ead8 }

// Pointer addresses one record: (segment file number, byte offset, total
// record length including header). It is what a keys.KindSetPtr entry
// stores as its value.
type Pointer struct {
	Seg uint64
	Off int64
	Len int64
}

// Encode appends the pointer's varint encoding to dst.
func (p Pointer) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, p.Seg)
	dst = binary.AppendUvarint(dst, uint64(p.Off))
	dst = binary.AppendUvarint(dst, uint64(p.Len))
	return dst
}

// DecodePointer parses a pointer encoded by Encode.
func DecodePointer(data []byte) (Pointer, error) {
	var p Pointer
	var n1, n2, n3 int
	p.Seg, n1 = binary.Uvarint(data)
	if n1 <= 0 {
		return Pointer{}, fmt.Errorf("vlog: bad pointer segment")
	}
	off, n2 := binary.Uvarint(data[n1:])
	if n2 <= 0 {
		return Pointer{}, fmt.Errorf("vlog: bad pointer offset")
	}
	length, n3 := binary.Uvarint(data[n1+n2:])
	if n3 <= 0 {
		return Pointer{}, fmt.Errorf("vlog: bad pointer length")
	}
	// Offsets and lengths index files and size buffers: one that does not
	// fit an int64 is corruption, not a position.
	if off > math.MaxInt64 || length > math.MaxInt64 {
		return Pointer{}, fmt.Errorf("vlog: pointer offset %d / length %d out of range", off, length)
	}
	p.Off, p.Len = int64(off), int64(length)
	return p, nil
}

// EncodedLen returns the on-disk record size for a key/value pair.
func EncodedLen(keyLen, valueLen int) int64 {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(keyLen))
	return int64(HeaderSize + n + keyLen + valueLen)
}

// appendRecord appends the framed record for (key, value) to dst.
func appendRecord(dst, key, value []byte) []byte {
	payloadStart := len(dst) + HeaderSize
	dst = append(dst, make([]byte, HeaderSize)...)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = append(dst, value...)
	payload := dst[payloadStart:]
	hdr := dst[payloadStart-HeaderSize : payloadStart]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], maskCRC(crc32.Checksum(hdr[0:4], castagnoli)))
	binary.LittleEndian.PutUint32(hdr[8:12], maskCRC(crc32.Checksum(payload, castagnoli)))
	return dst
}

// parseHeader validates the header CRC and returns the payload length.
func parseHeader(hdr []byte) (payloadLen int64, ok bool) {
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if maskCRC(crc32.Checksum(hdr[0:4], castagnoli)) != want {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint32(hdr[0:4])), true
}

// parsePayload splits a checksum-verified payload into key and value.
func parsePayload(payload []byte) (key, value []byte, err error) {
	kl, n := binary.Uvarint(payload)
	if n <= 0 || kl > uint64(len(payload)-n) {
		return nil, nil, fmt.Errorf("vlog: bad record key length")
	}
	return payload[n : n+int(kl)], payload[n+int(kl):], nil
}

// payloadOK reports whether the payload matches the header's payload CRC.
func payloadOK(hdr, payload []byte) bool {
	want := binary.LittleEndian.Uint32(hdr[8:12])
	return maskCRC(crc32.Checksum(payload, castagnoli)) == want
}

// Writer appends records to one open segment. Like wal.Writer it is not
// self-locking: appends come only from the group-commit leader, which the
// engine serializes. A Sync may run beside an append — a flush syncing the
// active segment while the leader writes — so size and synced are atomic,
// and a Sync credits only the bytes appended before it started: an fsync
// covers every byte written before it began, and no more is known.
//
//boltvet:mustclose
type Writer struct {
	seg    uint64       //boltvet:guardedby none -- immutable
	f      vfs.File     //boltvet:guardedby none -- immutable; the file synchronizes its own calls
	buf    []byte       //boltvet:guardedby none -- the appending leader's alone (see type doc)
	size   atomic.Int64 //boltvet:guardedby atomic
	synced atomic.Int64 //boltvet:guardedby atomic
}

// NewWriter creates segment file seg (named by nameOf) in fs, starting
// empty.
func NewWriter(fs vfs.FS, name string, seg uint64) (*Writer, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, fmt.Errorf("vlog: create %q: %w", name, err)
	}
	return &Writer{seg: seg, f: f}, nil
}

// Seg returns the segment's file number.
func (w *Writer) Seg() uint64 { return w.seg }

// Append writes one record and returns its pointer. The bytes are durable
// only after a Sync that starts once Append has returned.
func (w *Writer) Append(key, value []byte) (Pointer, error) {
	w.buf = appendRecord(w.buf[:0], key, value)
	if _, err := w.f.Write(w.buf); err != nil {
		return Pointer{}, fmt.Errorf("vlog: append segment %d: %w", w.seg, err)
	}
	n := int64(len(w.buf))
	return Pointer{Seg: w.seg, Off: w.size.Add(n) - n, Len: n}, nil
}

// Sync makes every record appended before it started durable.
func (w *Writer) Sync() error {
	n := w.size.Load()
	if n == w.synced.Load() {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("vlog: sync segment %d: %w", w.seg, err)
	}
	// Syncs may overlap (a flush and a SyncWAL commit): the larger credit
	// stands.
	for s := w.synced.Load(); s < n && !w.synced.CompareAndSwap(s, n); s = w.synced.Load() {
	}
	return nil
}

// Size returns the segment's current length in bytes.
func (w *Writer) Size() int64 { return w.size.Load() }

// SyncedSize returns the length up to which the segment is known durable.
// Appends happen at record granularity, so the value is always a record
// boundary.
func (w *Writer) SyncedSize() int64 { return w.synced.Load() }

// Close closes the segment file without syncing: the bytes no Sync has
// covered stay as durable as the file system leaves them.
func (w *Writer) Close() error { return w.f.Close() }

// ReadRecord reads and verifies the record at p from f, returning its key
// and value (sub-slices of one freshly allocated buffer). A checksum
// mismatch — including a pointer into a punched range — returns ErrCorrupt.
func ReadRecord(f vfs.File, p Pointer) (key, value []byte, err error) {
	if p.Len < HeaderSize+1 {
		return nil, nil, fmt.Errorf("%w: segment %d offset %d: implausible length %d",
			ErrCorrupt, p.Seg, p.Off, p.Len)
	}
	buf := make([]byte, p.Len)
	if err := vfs.ReadFull(f, buf, p.Off); err != nil {
		return nil, nil, fmt.Errorf("vlog: read segment %d @%d+%d: %w", p.Seg, p.Off, p.Len, err)
	}
	hdr, payload := buf[:HeaderSize], buf[HeaderSize:]
	plen, ok := parseHeader(hdr)
	if !ok || plen != int64(len(payload)) || !payloadOK(hdr, payload) {
		return nil, nil, fmt.Errorf("%w: segment %d offset %d", ErrCorrupt, p.Seg, p.Off)
	}
	return parsePayload(payload)
}

// WalkRecord describes one record visited by Walk.
type WalkRecord struct {
	Off int64
	Len int64 // total on-disk length, header included
	// PayloadOK distinguishes an intact record from one whose payload
	// range was reclaimed (punched) or rotted; Key/Value are nil when
	// false.
	PayloadOK bool
	Key       []byte
	Value     []byte
}

// Walk scans the segment from offset `from` to `size`, invoking fn for
// each record whose header parses. It stops cleanly at the first invalid
// header or short read (a torn tail) and returns the offset it reached —
// the segment's valid length. Any other read error is returned with the
// offset reached: a failed read says nothing about where the valid prefix
// ends, and treating it as a torn tail would truncate acknowledged
// records. Records whose header is intact but whose payload fails its CRC
// (punched or rotted payloads) are still visited, with PayloadOK false,
// and do not stop the walk.
func Walk(f vfs.File, from, size int64, fn func(WalkRecord) error) (valid int64, err error) {
	off := from
	var buf []byte
	for off+HeaderSize <= size {
		var hdr [HeaderSize]byte
		if err := vfs.ReadFull(f, hdr[:], off); err != nil {
			return off, tornTail(err)
		}
		plen, ok := parseHeader(hdr[:])
		if !ok || plen < 1 || off+HeaderSize+plen > size {
			return off, nil
		}
		if cap(buf) < int(plen) {
			buf = make([]byte, plen)
		}
		payload := buf[:plen]
		if err := vfs.ReadFull(f, payload, off+HeaderSize); err != nil {
			return off, tornTail(err)
		}
		rec := WalkRecord{Off: off, Len: HeaderSize + plen}
		if payloadOK(hdr[:], payload) {
			key, value, perr := parsePayload(payload)
			if perr == nil {
				rec.PayloadOK = true
				rec.Key, rec.Value = key, value
			}
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return off, err
			}
		}
		off += rec.Len
	}
	return off, nil
}

// tornTail maps a read error inside Walk to its verdict: a short read ends
// the valid prefix (nil), anything else is a fault the caller must see.
func tornTail(err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return err
}

// ValidLength returns the byte length of the segment's parseable record
// prefix starting at `from` (recovery uses it to bound pointer validation
// past the last durably recorded size), or the read error that kept Walk
// from finding it.
func ValidLength(f vfs.File, from, size int64) (int64, error) {
	return Walk(f, from, size, nil)
}
