// Package batch implements the write batch: the unit of atomic application
// and of WAL logging. The wire format matches LevelDB's: an 8-byte starting
// sequence number, a 4-byte record count, then records of the form
// kind(1) | varint keylen | key | [varint valuelen | value].
package batch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/bolt-lsm/bolt/internal/keys"
)

const headerSize = 12

// newCap is a new batch's capacity: past the header it holds the head of a
// record (kind, key length, key, value length) with a key of up to 25
// bytes, a YCSB key's 23 among them, so Put on a new batch grows it once,
// by appending the value.
const newCap = 48

// ErrCorrupt reports a malformed batch representation.
var ErrCorrupt = errors.New("batch: corrupt")

// Batch accumulates Put and Delete operations.
type Batch struct {
	data []byte
}

// New returns an empty batch.
func New() *Batch {
	return &Batch{data: make([]byte, headerSize, newCap)}
}

// FromRepr wraps a wire representation (e.g. one WAL record) as a batch.
func FromRepr(data []byte) (*Batch, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(data))
	}
	return &Batch{data: data}, nil
}

// Repr returns the wire representation. The slice aliases the batch.
func (b *Batch) Repr() []byte { return b.data }

// Put records a key/value insertion.
func (b *Batch) Put(key, value []byte) { b.add(keys.KindSet, key, value) }

// PutPtr records an insertion whose value is a value-log pointer (the
// encoded vlog.Pointer bytes). The group-commit leader rewrites large
// KindSet records into these before the WAL append, so replay reproduces
// the pointer entries without re-extracting values.
func (b *Batch) PutPtr(key, ptr []byte) { b.add(keys.KindSetPtr, key, ptr) }

// Delete records a key deletion.
func (b *Batch) Delete(key []byte) { b.add(keys.KindDelete, key, nil) }

// add appends one record, reallocating the buffer at most once. The
// record's head (kind, key length, key and value length) is appended into
// spare capacity, and the value behind it: when the buffer must grow, the
// append that copies the value grows it, and the runtime clears only the
// capacity past the record. Growing ahead of the appends would zero-fill
// the bytes they overwrite.
func (b *Batch) add(kind keys.Kind, key, value []byte) {
	b.setCount(b.Count() + 1)
	if head := 1 + 2*binary.MaxVarintLen32 + len(key); cap(b.data)-len(b.data) < head {
		// The head alone might overflow: grow for the whole record at once.
		b.data = slices.Grow(b.data, head+len(value))
	}
	b.data = append(b.data, byte(kind))
	b.data = binary.AppendUvarint(b.data, uint64(len(key)))
	b.data = append(b.data, key...)
	if kind != keys.KindDelete {
		b.data = binary.AppendUvarint(b.data, uint64(len(value)))
	}
	b.data = append(b.data, value...)
}

// Count returns the number of operations in the batch.
func (b *Batch) Count() int {
	return int(binary.LittleEndian.Uint32(b.data[8:12]))
}

func (b *Batch) setCount(n int) {
	binary.LittleEndian.PutUint32(b.data[8:12], uint32(n))
}

// Seq returns the batch's starting sequence number.
func (b *Batch) Seq() keys.Seq {
	return keys.Seq(binary.LittleEndian.Uint64(b.data[0:8]))
}

// SetSeq stamps the batch's starting sequence number.
func (b *Batch) SetSeq(seq keys.Seq) {
	binary.LittleEndian.PutUint64(b.data[0:8], uint64(seq))
}

// Size returns the wire size in bytes.
func (b *Batch) Size() int { return len(b.data) }

// Empty reports whether the batch holds no operations.
func (b *Batch) Empty() bool { return b.Count() == 0 }

// Reset clears the batch for reuse.
func (b *Batch) Reset() {
	b.data = b.data[:headerSize]
	for i := range b.data {
		b.data[i] = 0
	}
}

// Append concatenates other's operations onto b (used by group commit).
// Sequence numbers are assigned later via SetSeq; other is unchanged.
func (b *Batch) Append(other *Batch) {
	b.setCount(b.Count() + other.Count())
	b.data = append(b.data, other.data[headerSize:]...)
}

// Iterate calls fn for every operation with its assigned sequence number,
// in batch order. The key and value slices alias the batch.
func (b *Batch) Iterate(fn func(seq keys.Seq, kind keys.Kind, key, value []byte) error) error {
	return b.IterateWithSeq(b.Seq(), fn)
}

// IterateWithSeq is Iterate with an explicit starting sequence number,
// used when a batch participates in a group commit without having its own
// header stamped.
func (b *Batch) IterateWithSeq(seq keys.Seq, fn func(seq keys.Seq, kind keys.Kind, key, value []byte) error) error {
	p := headerSize
	n := b.Count()
	for i := 0; i < n; i++ {
		if p >= len(b.data) {
			return fmt.Errorf("%w: truncated at op %d", ErrCorrupt, i)
		}
		kind := keys.Kind(b.data[p])
		p++
		key, np, err := readLenPrefixed(b.data, p)
		if err != nil {
			return fmt.Errorf("%w: op %d key: %v", ErrCorrupt, i, err)
		}
		p = np
		var value []byte
		if kind == keys.KindSet || kind == keys.KindSetPtr {
			value, np, err = readLenPrefixed(b.data, p)
			if err != nil {
				return fmt.Errorf("%w: op %d value: %v", ErrCorrupt, i, err)
			}
			p = np
		} else if kind != keys.KindDelete {
			return fmt.Errorf("%w: op %d bad kind %d", ErrCorrupt, i, kind)
		}
		if err := fn(seq, kind, key, value); err != nil {
			return err
		}
		seq++
	}
	if p != len(b.data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b.data)-p)
	}
	return nil
}

func readLenPrefixed(data []byte, p int) ([]byte, int, error) {
	l, n := binary.Uvarint(data[p:])
	if n <= 0 {
		return nil, 0, errors.New("bad varint")
	}
	p += n
	// Compare in uint64 space so a huge declared length cannot wrap
	// negative when converted to int.
	if l > uint64(len(data)-p) {
		return nil, 0, errors.New("overrun")
	}
	return data[p : p+int(l)], p + int(l), nil
}
