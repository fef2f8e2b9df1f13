// Package block implements the SSTable block format: prefix-compressed
// key/value entries with restart points for binary search, as in LevelDB.
//
// Entry encoding (all varints):
//
//	shared | unshared | valueLen | padLen | key[shared:] | value | pad
//
// The padLen field is this implementation's one extension: profiles that
// model a less space-efficient on-disk format (the paper measures LevelDB
// at 223 bytes vs RocksDB at 141 bytes per 100-byte record) pad each entry
// by a fixed amount. Readers skip the pad; values are never altered.
//
// The block ends with a restart array: one uint32 offset per restart point
// followed by the restart count.
package block

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/bolt-lsm/bolt/internal/keys"
)

// DefaultRestartInterval is the number of entries between restart points.
const DefaultRestartInterval = 16

// ErrCorrupt reports a malformed block.
var ErrCorrupt = errors.New("block: corrupt")

// zeroPad is the source of entry pads, appended a slice at a time; a pad
// longer than it is appended in chunks.
var zeroPad [128]byte

// Builder assembles a block. The zero value is not usable; use NewBuilder.
type Builder struct {
	restartInterval int
	padding         int

	buf        []byte
	restarts   []uint32
	numEntries int
	counter    int // entries since the last restart
	lastKey    []byte
}

// NewBuilder returns a block builder. restartInterval <= 0 selects the
// default; padding is the per-entry dead-byte count (format-efficiency
// model, normally 0).
func NewBuilder(restartInterval, padding int) *Builder {
	if restartInterval <= 0 {
		restartInterval = DefaultRestartInterval
	}
	return &Builder{
		restartInterval: restartInterval,
		padding:         padding,
		restarts:        []uint32{0},
	}
}

// Add appends an entry. Keys must be added in strictly increasing internal
// key order; this is the caller's responsibility.
func (b *Builder) Add(key, value []byte) {
	shared := 0
	if b.counter < b.restartInterval {
		n := len(b.lastKey)
		if len(key) < n {
			n = len(key)
		}
		for shared < n && b.lastKey[shared] == key[shared] {
			shared++
		}
	} else {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
		b.counter = 0
	}
	b.buf = binary.AppendUvarint(b.buf, uint64(shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)-shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(value)))
	b.buf = binary.AppendUvarint(b.buf, uint64(b.padding))
	b.buf = append(b.buf, key[shared:]...)
	b.buf = append(b.buf, value...)
	for pad := b.padding; pad > 0; pad -= len(zeroPad) {
		b.buf = append(b.buf, zeroPad[:min(pad, len(zeroPad))]...)
	}
	b.lastKey = append(b.lastKey[:0], key...)
	b.counter++
	b.numEntries++
}

// EstimatedSize returns the current encoded size if Finish were called now.
func (b *Builder) EstimatedSize() int {
	return len(b.buf) + 4*len(b.restarts) + 4
}

// Empty reports whether no entries have been added.
func (b *Builder) Empty() bool { return b.numEntries == 0 }

// NumEntries returns the number of entries added.
func (b *Builder) NumEntries() int { return b.numEntries }

// Finish appends the restart array and returns the complete block. The
// builder must be Reset before reuse.
func (b *Builder) Finish() []byte {
	for _, r := range b.restarts {
		b.buf = binary.LittleEndian.AppendUint32(b.buf, r)
	}
	b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(len(b.restarts)))
	return b.buf
}

// Reset prepares the builder for a new block.
func (b *Builder) Reset() {
	b.buf = b.buf[:0]
	b.restarts = append(b.restarts[:0], 0)
	b.numEntries = 0
	b.counter = 0
	b.lastKey = b.lastKey[:0]
}

// Reader provides access to a finished block. The restart array is kept
// in its encoded form and decoded on demand: materializing it as []uint32
// would cost one allocation per block read — on the Get hot path, per
// lookup — for data the binary search touches only O(log n) entries of.
type Reader struct {
	data        []byte // entry region only
	restartData []byte // encoded restart array, 4 bytes per restart
	numRestarts int
}

// NewReader parses the framing of a finished block.
func NewReader(data []byte) (*Reader, error) {
	r := new(Reader)
	if err := r.Init(data); err != nil {
		return nil, err
	}
	return r, nil
}

// Init parses the framing of a finished block in place, so callers on hot
// paths can keep the Reader on the stack instead of heap-allocating one
// per block read.
func (r *Reader) Init(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("%w: too short (%d bytes)", ErrCorrupt, len(data))
	}
	n := int(binary.LittleEndian.Uint32(data[len(data)-4:]))
	restartsOff := len(data) - 4 - 4*n
	if n <= 0 || restartsOff < 0 {
		return fmt.Errorf("%w: bad restart count %d", ErrCorrupt, n)
	}
	for i := 0; i < n; i++ {
		if int(binary.LittleEndian.Uint32(data[restartsOff+4*i:])) > restartsOff {
			return fmt.Errorf("%w: restart %d out of range", ErrCorrupt, i)
		}
	}
	r.data = data[:restartsOff]
	r.restartData = data[restartsOff : len(data)-4]
	r.numRestarts = n
	return nil
}

// restart returns the i'th restart offset (validated by Init).
func (r *Reader) restart(i int) int {
	return int(binary.LittleEndian.Uint32(r.restartData[4*i:]))
}

// badHeader reports an entry header whose named varint is malformed or
// runs off the block.
func badHeader(field string, off int) error {
	return fmt.Errorf("%w: bad %s in the header of the entry at %d", ErrCorrupt, field, off)
}

// parseHeader decodes the varint header of the entry at off, returning
// the shared/unshared key lengths, the offset of the key suffix (the
// value follows it), the value length, and the offset of the next entry.
//
// Every length of a typical entry but a long value's fits one varint byte,
// so each field reads its first byte directly and calls the general
// decoder only when the continuation bit is set; each check but the last
// also covers the next field's first byte.
func (r *Reader) parseHeader(off int) (shared, unshared, kstart, valueLen, next int, err error) {
	data := r.data
	if off >= len(data) {
		return 0, 0, 0, 0, 0, fmt.Errorf("%w: entry offset %d out of range", ErrCorrupt, off)
	}
	p := off
	sharedU, n := uint64(data[p]), 1
	if sharedU >= 0x80 {
		sharedU, n = binary.Uvarint(data[p:])
	}
	if p += n; n <= 0 || p >= len(data) {
		return 0, 0, 0, 0, 0, badHeader("shared varint", off)
	}
	unsharedU, n := uint64(data[p]), 1
	if unsharedU >= 0x80 {
		unsharedU, n = binary.Uvarint(data[p:])
	}
	if p += n; n <= 0 || p >= len(data) {
		return 0, 0, 0, 0, 0, badHeader("unshared varint", off)
	}
	valueLenU, n := uint64(data[p]), 1
	if valueLenU >= 0x80 {
		valueLenU, n = binary.Uvarint(data[p:])
	}
	if p += n; n <= 0 || p >= len(data) {
		return 0, 0, 0, 0, 0, badHeader("value len", off)
	}
	padLenU, n := uint64(data[p]), 1
	if padLenU >= 0x80 {
		padLenU, n = binary.Uvarint(data[p:])
	}
	if p += n; n <= 0 {
		return 0, 0, 0, 0, 0, badHeader("pad len", off)
	}
	// Bound each length before summing: a crafted varint near 2^64 would
	// wrap the sum (or turn negative as an int) and slip past the check.
	limit := uint64(len(data))
	if sharedU > limit || unsharedU > limit || valueLenU > limit || padLenU > limit {
		return 0, 0, 0, 0, 0, fmt.Errorf("%w: entry at %d has a length beyond the block", ErrCorrupt, off)
	}
	end := p + int(unsharedU) + int(valueLenU) + int(padLenU)
	if end > len(data) {
		return 0, 0, 0, 0, 0, fmt.Errorf("%w: entry at %d overruns block", ErrCorrupt, off)
	}
	return int(sharedU), int(unsharedU), p, int(valueLenU), end, nil
}

// restartKey returns the full key of the i'th restart entry. Restart
// entries are written with shared == 0 by construction, so the key
// aliases the block data directly — Seek's binary search probes allocate
// nothing.
func (r *Reader) restartKey(i int) (keys.InternalKey, error) {
	off := r.restart(i)
	shared, unshared, kstart, _, _, err := r.parseHeader(off)
	if err != nil {
		return nil, err
	}
	if shared != 0 {
		return nil, fmt.Errorf("%w: restart entry at %d has shared prefix", ErrCorrupt, off)
	}
	if unshared < keys.TrailerLen {
		return nil, fmt.Errorf("%w: entry key at %d shorter than trailer", ErrCorrupt, off)
	}
	return keys.InternalKey(r.data[kstart : kstart+unshared]), nil
}

// Iter returns an iterator positioned before the first entry.
func (r *Reader) Iter() *Iter {
	it := new(Iter)
	it.Init(r)
	return it
}

// Iter iterates a block's entries in key order. Typical use:
//
//	for it.First(); it.Valid(); it.Next() { ... }
//	if err := it.Err(); err != nil { ... }
//
// Keys are reconstructed into a buffer that is reused across positioning
// calls — Key and Value are valid only until the next move, per the
// engine-wide iterator contract.
type Iter struct {
	r      *Reader
	offset int // -1 before first / after exhaustion
	next   int
	buf    []byte // reused backing for reconstructed keys
	key    keys.InternalKey
	value  []byte
	err    error
}

// Init points the iterator at r, positioned before the first entry. The
// key buffer is retained across Init calls so one stack Iter can walk
// many blocks without reallocating.
func (it *Iter) Init(r *Reader) {
	it.r = r
	it.offset = -1
	it.next = 0
	it.key = nil
	it.value = nil
	it.err = nil
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iter) Valid() bool { return it.offset >= 0 && it.err == nil }

// Err returns the first corruption error encountered, if any.
func (it *Iter) Err() error { return it.err }

// Key returns the current internal key. Valid until the next move.
func (it *Iter) Key() keys.InternalKey { return it.key }

// Value returns the current value. Valid until the next move.
func (it *Iter) Value() []byte { return it.value }

func (it *Iter) setInvalid() {
	it.offset = -1
	it.key = nil
	it.value = nil
}

// decodeAt decodes the entry at off into the reused key buffer. prevLen
// is the number of leading bytes of it.buf that hold the previous entry's
// key (0 when off is a restart point, where shared must be 0).
func (it *Iter) decodeAt(off, prevLen int) bool {
	shared, unshared, kstart, valueLen, next, err := it.r.parseHeader(off)
	if err == nil {
		err = checkEntry(off, shared, unshared, prevLen)
	}
	if err != nil {
		it.err = err
		it.setInvalid()
		return false
	}
	it.buf = append(it.buf[:shared], it.r.data[kstart:kstart+unshared]...)
	it.key = it.buf
	it.value = it.r.data[kstart+unshared : kstart+unshared+valueLen]
	it.offset = off
	it.next = next
	return true
}

// checkEntry vets the key lengths of the entry at off against the
// previous key's length. It is small enough to inline into the decode
// loops; badEntry builds the error out of line.
func checkEntry(off, shared, unshared, prevLen int) error {
	if shared > prevLen || shared+unshared < keys.TrailerLen {
		return badEntry(off, shared, prevLen)
	}
	return nil
}

// badEntry describes the fault checkEntry found.
func badEntry(off, shared, prevLen int) error {
	if shared > prevLen {
		return fmt.Errorf("%w: shared %d exceeds previous key %d", ErrCorrupt, shared, prevLen)
	}
	// An internal key must carry its 8-byte trailer; anything shorter is
	// corruption and would crash the comparator.
	return fmt.Errorf("%w: entry key at %d shorter than trailer", ErrCorrupt, off)
}

// First positions the iterator at the first entry.
func (it *Iter) First() bool {
	it.err = nil
	if len(it.r.data) == 0 {
		it.setInvalid()
		return false
	}
	return it.decodeAt(0, 0)
}

// Next advances to the next entry.
func (it *Iter) Next() bool {
	if !it.Valid() {
		return false
	}
	if it.next >= len(it.r.data) {
		it.setInvalid()
		return false
	}
	return it.decodeAt(it.next, len(it.key))
}

// Seek positions the iterator at the first entry with internal key >= target.
func (it *Iter) Seek(target keys.InternalKey) bool {
	it.err = nil
	key, value, off, next, err := it.r.seekGE(target, it.buf)
	if err != nil || key == nil {
		it.err = err
		it.setInvalid()
		return false
	}
	it.buf, it.key, it.value, it.offset, it.next = key, key, value, off, next
	return true
}

// SeekGE returns the first entry with internal key >= target, or a nil
// key when every entry is smaller. The key is built in buf's backing
// array (grown if it is too small) and the value aliases the block. It is
// Iter.Seek without the iterator: nothing is retained, so a caller that
// passes a stack buffer and drops the results before it returns
// allocates nothing.
func (r *Reader) SeekGE(target keys.InternalKey, buf []byte) (key keys.InternalKey, value []byte, err error) {
	key, value, _, _, err = r.seekGE(target, buf)
	return key, value, err
}

// seekGE is SeekGE that also returns the entry's offset and the next
// entry's, for Iter.
func (r *Reader) seekGE(target keys.InternalKey, buf []byte) (key keys.InternalKey, value []byte, off, next int, err error) {
	// Binary search restarts for the last restart whose key < target.
	// Probe keys alias the block data (restart entries have no shared
	// prefix), so the search allocates nothing.
	lo, hi := 0, r.numRestarts-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		k, err := r.restartKey(mid)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		if keys.Compare(k, target) < 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	// Linear scan forward from the chosen restart.
	off = r.restart(lo)
	if key, value, next, err = r.entryAt(off, buf, 0); err != nil {
		return nil, nil, 0, 0, err
	}
	for keys.Compare(key, target) < 0 {
		if next >= len(r.data) {
			return nil, nil, 0, 0, nil
		}
		off = next
		if key, value, next, err = r.entryAt(off, key, len(key)); err != nil {
			return nil, nil, 0, 0, err
		}
	}
	return key, value, off, next, nil
}

// entryAt decodes the entry at off as decodeAt does, building its key in
// prev's backing array, whose first prevLen bytes hold the previous
// entry's key; it returns the key, the value (aliasing the block) and the
// offset of the next entry.
func (r *Reader) entryAt(off int, prev []byte, prevLen int) (key keys.InternalKey, value []byte, next int, err error) {
	shared, unshared, kstart, valueLen, next, err := r.parseHeader(off)
	if err == nil {
		err = checkEntry(off, shared, unshared, prevLen)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	key = append(prev[:shared], r.data[kstart:kstart+unshared]...)
	return key, r.data[kstart+unshared : kstart+unshared+valueLen], next, nil
}
