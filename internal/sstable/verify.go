package sstable

import (
	"errors"

	"github.com/bolt-lsm/bolt/internal/block"
	"github.com/bolt-lsm/bolt/internal/keys"
)

// Size returns the table's total length in bytes, footer included — the
// scrubber's pacing unit.
func (r *Reader) Size() int64 { return r.size }

// VerifyTable re-reads the whole table straight from the file — bypassing
// the block cache, which may hold copies read before the rot — and checks
// everything the format promises: footer magic, filter and index block
// checksums, every data block's checksum and restart structure, strict
// internal-key ordering across all entries, and the footer entry count.
// It is the scrubber's unit of work and bolt-dump -verify's engine. The
// first finding is returned as a *CorruptionError; I/O failures surface
// as ordinary errors.
func (r *Reader) VerifyTable() error {
	// Footer. The open-time copy is not trusted: the bytes may have rotted
	// since.
	ft, err := r.readFooter()
	if err != nil {
		return err
	}
	indexH, filterH := ft.index, ft.filter

	// Meta blocks (filter, then index), re-read and re-checksummed.
	if filterH.length > 0 {
		if err := r.checkHandle(filterH); err != nil {
			return err
		}
		if _, err := r.readBlockDirect(filterH); err != nil {
			return err
		}
	}
	if err := r.checkHandle(indexH); err != nil {
		return err
	}
	indexData, err := r.readBlockDirect(indexH)
	if err != nil {
		return err
	}
	index, err := block.NewReader(indexData)
	if err != nil {
		return r.corruptf(r.base+indexH.offset, err, "parse index")
	}

	// Data blocks: checksum, restart structure, entry decode, and global
	// key ordering.
	var prev keys.InternalKey
	count := 0
	idx := index.Iter()
	for ok := idx.First(); ok; ok = idx.Next() {
		h, err := decodeHandle(idx.Value())
		if err != nil {
			return r.corruptf(-1, err, "index entry handle")
		}
		if err := r.checkHandle(h); err != nil {
			return err
		}
		data, err := r.readBlockDirect(h)
		if err != nil {
			return err
		}
		br, err := block.NewReader(data)
		if err != nil {
			return r.corruptf(r.base+h.offset, err, "parse data block")
		}
		it := br.Iter()
		for ok := it.First(); ok; ok = it.Next() {
			if prev != nil && keys.Compare(prev, it.Key()) >= 0 {
				return r.corruptf(r.base+h.offset, nil, "key order violation")
			}
			prev = append(prev[:0], it.Key()...)
			count++
		}
		if err := it.Err(); err != nil {
			return r.corruptf(r.base+h.offset, err, "data block entry")
		}
	}
	if err := idx.Err(); err != nil {
		return r.corruptf(r.base+indexH.offset, err, "index iteration")
	}
	if count != ft.numEntries {
		return r.corruptf(r.base+r.size-FooterSize, nil,
			"entry count %d, footer says %d", count, ft.numEntries)
	}
	return nil
}

// Salvage walks the table's data blocks straight from the file (no cache)
// and emits, in key order, every entry from blocks that still checksum and
// decode — the recoverable remainder of a quarantined table. Blocks that
// fail their checksum, fail to parse, or break key ordering are skipped
// whole (a block whose tail fails mid-decode loses the whole block too:
// prefix compression makes a partial decode untrustworthy). The return
// counts skipped blocks; a non-nil error is an emit or I/O failure, never
// a corruption finding — corruption is what Salvage exists to absorb.
func (r *Reader) Salvage(emit func(key keys.InternalKey, value []byte) error) (skipped int, err error) {
	var prev keys.InternalKey
	idx := r.index.Iter()
	for ok := idx.First(); ok; ok = idx.Next() {
		h, err := decodeHandle(idx.Value())
		if err != nil {
			skipped++
			continue
		}
		if err := r.checkHandle(h); err != nil {
			skipped++
			continue
		}
		data, err := r.readBlockDirect(h)
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				skipped++
				continue
			}
			return skipped, err
		}
		br, err := block.NewReader(data)
		if err != nil {
			skipped++
			continue
		}
		// Decode the whole block before emitting anything: a block that
		// goes bad halfway is dropped in full.
		var blkKeys []keys.InternalKey
		var blkVals [][]byte
		good := true
		last := prev
		it := br.Iter()
		for ok := it.First(); ok; ok = it.Next() {
			if last != nil && keys.Compare(last, it.Key()) >= 0 {
				good = false
				break
			}
			k := append(keys.InternalKey(nil), it.Key()...)
			blkKeys = append(blkKeys, k)
			blkVals = append(blkVals, append([]byte(nil), it.Value()...))
			last = k
		}
		if !good || it.Err() != nil || len(blkKeys) == 0 {
			skipped++
			continue
		}
		for i, k := range blkKeys {
			if err := emit(k, blkVals[i]); err != nil {
				return skipped, err
			}
		}
		prev = last
	}
	if err := idx.Err(); err != nil {
		// A rotted in-memory index cannot happen (it was checksummed at
		// open); treat iteration failure as losing the remainder.
		skipped++
	}
	return skipped, nil
}
