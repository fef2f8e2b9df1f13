// Package sstable implements the on-disk sorted table format. A table is a
// sequence of prefix-compressed data blocks followed by a Bloom filter
// block, an index block, and a fixed-size footer.
//
// Crucially for BoLT, a table is addressed by a byte range — (base offset,
// size) within a physical file — not by a whole file. A *logical SSTable*
// is simply a table whose base offset is non-zero: several of them share
// one compaction file, and every internal offset (block handles, footer
// fields) is relative to the table base. Legacy mode stores exactly one
// table per file at offset zero; the same reader handles both.
package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/bolt-lsm/bolt/internal/block"
	"github.com/bolt-lsm/bolt/internal/bloom"
	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// Magic identifies a table footer.
const Magic = 0xb017_57ab_1e00_0001

// FooterSize is the fixed footer length.
const FooterSize = 48

// blockTrailerSize is the per-block CRC32 trailer length.
const blockTrailerSize = 4

// ErrCorrupt reports a malformed table.
var ErrCorrupt = errors.New("sstable: corrupt")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Config controls table construction.
type Config struct {
	// BlockSize is the uncompressed data block size target (default 4 KiB).
	BlockSize int
	// RestartInterval is the block restart interval (default 16).
	RestartInterval int
	// EntryPadding adds dead bytes per entry, modelling a less compact
	// record format (see package block).
	EntryPadding int
	// BloomBitsPerKey configures the filter block; 0 selects the default
	// (10, as in the paper), negative disables the filter.
	BloomBitsPerKey int
}

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = 4096
	}
	if c.RestartInterval <= 0 {
		c.RestartInterval = block.DefaultRestartInterval
	}
	if c.BloomBitsPerKey == 0 {
		c.BloomBitsPerKey = bloom.DefaultBitsPerKey
	}
	return c
}

// TableInfo describes a finished table.
type TableInfo struct {
	// Base is the table's starting offset within the physical file.
	Base int64
	// Size is the table's total length in bytes, footer included.
	Size int64
	// Smallest and Largest are the first and last internal keys.
	Smallest, Largest keys.InternalKey
	// NumEntries is the number of entries.
	NumEntries int
	// MetaSize is the combined filter+index size in bytes — the cost of a
	// TableCache miss.
	MetaSize int64
}

// maxBufferedBytes bounds the bytes a Writer holds back before writing: a
// table up to this size — every logical SSTable, at the paper's 1 MiB and
// below — reaches the file as one Write at Finish; a larger legacy table
// drains its buffer each time it fills, so memory stays bounded.
const maxBufferedBytes = 4 << 20

// Writer builds one table, appending to f starting at offset base (which
// must equal f's current size). Blocks, trailers, filter, index and footer
// accumulate in one buffer written at Finish — a write call per 4 KiB block
// costs more than building the block. The writer never calls Sync: the
// caller owns barrier placement, which is the entire point of BoLT. After
// Finish, Reset starts the next table on the same buffers.
type Writer struct {
	f    vfs.File
	base int64
	cfg  Config

	offset    int64  // bytes appended so far, relative to base
	buf       []byte // appended but not yet written to f
	dataBlock *block.Builder
	indexB    *block.Builder

	// pendingIndex holds the handle of the last finished data block; its
	// index entry is emitted once the next key is known (for a short
	// separator) or at Finish.
	pendingIndex  bool
	pendingHandle blockHandle
	lastKey       []byte
	scratch       []byte // separator and handle encodings, per index entry

	keyHashes  []uint32 // bloom hash of every entry's user key
	smallest   keys.InternalKey
	numEntries int
	finished   bool
}

type blockHandle struct {
	offset int64 // relative to table base
	length int64 // without trailer
}

func (h blockHandle) encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(h.offset))
	return binary.AppendUvarint(dst, uint64(h.length))
}

func decodeHandle(data []byte) (blockHandle, error) {
	off, n := binary.Uvarint(data)
	if n <= 0 {
		return blockHandle{}, fmt.Errorf("%w: bad handle offset", ErrCorrupt)
	}
	length, m := binary.Uvarint(data[n:])
	if m <= 0 {
		return blockHandle{}, fmt.Errorf("%w: bad handle length", ErrCorrupt)
	}
	return blockHandle{offset: int64(off), length: int64(length)}, nil
}

// NewWriter starts a table at f's offset base.
func NewWriter(f vfs.File, base int64, cfg Config) *Writer {
	cfg = cfg.withDefaults()
	return &Writer{
		f:         f,
		base:      base,
		cfg:       cfg,
		dataBlock: block.NewBuilder(cfg.RestartInterval, cfg.EntryPadding),
		indexB:    block.NewBuilder(1, 0),
	}
}

// Reset starts a new table at f's offset base, reusing the writer's
// buffers. The previous table must have been finished or abandoned.
func (w *Writer) Reset(f vfs.File, base int64) {
	w.f, w.base = f, base
	w.offset = 0
	w.buf = w.buf[:0]
	w.dataBlock.Reset()
	w.indexB.Reset()
	w.pendingIndex = false
	w.lastKey = w.lastKey[:0]
	w.keyHashes = w.keyHashes[:0]
	w.smallest = nil
	w.numEntries = 0
	w.finished = false
}

// Add appends an entry; keys must arrive in strictly increasing internal
// key order.
func (w *Writer) Add(key keys.InternalKey, value []byte) error {
	if w.finished {
		return errors.New("sstable: Add after Finish")
	}
	if w.pendingIndex {
		// Emit a shortened separator between the previous block's last key
		// and this key.
		w.addIndexEntry(keys.Separator(w.scratch[:0], keys.InternalKey(w.lastKey), key))
	}
	if w.numEntries == 0 {
		w.smallest = append(keys.InternalKey(nil), key...)
	}
	w.lastKey = append(w.lastKey[:0], key...)
	w.numEntries++
	if w.cfg.BloomBitsPerKey > 0 {
		w.keyHashes = append(w.keyHashes, bloom.Hash(key.UserKey()))
	}
	w.dataBlock.Add(key, value)
	if w.dataBlock.EstimatedSize() >= w.cfg.BlockSize {
		return w.flushDataBlock()
	}
	return nil
}

// addIndexEntry emits the pending data block's index entry under sep, which
// may alias w.scratch: the handle is encoded behind it.
func (w *Writer) addIndexEntry(sep keys.InternalKey) {
	w.scratch = w.pendingHandle.encode(sep)
	w.indexB.Add(w.scratch[:len(sep)], w.scratch[len(sep):])
	w.pendingIndex = false
}

func (w *Writer) flushDataBlock() error {
	if w.dataBlock.Empty() {
		return nil
	}
	w.pendingHandle = w.appendBlock(w.dataBlock.Finish())
	w.dataBlock.Reset()
	w.pendingIndex = true
	if len(w.buf) >= maxBufferedBytes {
		return w.writeBuffered()
	}
	return nil
}

// appendBlock buffers data plus its CRC trailer and returns its handle.
func (w *Writer) appendBlock(data []byte) blockHandle {
	start := len(w.buf)
	w.buf = append(w.buf, data...)
	return w.frameBlock(start)
}

// frameBlock makes a block of the bytes buffered since start: it appends
// their CRC trailer and returns the block's handle.
func (w *Writer) frameBlock(start int) blockHandle {
	data := w.buf[start:]
	h := blockHandle{offset: w.offset, length: int64(len(data))}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(data, castagnoli))
	w.offset += h.length + blockTrailerSize
	return h
}

// writeBuffered hands the buffered bytes to the file in one Write.
func (w *Writer) writeBuffered() error {
	n, err := w.f.Write(w.buf)
	if err == nil && n != len(w.buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		return fmt.Errorf("sstable: write table: %w", err)
	}
	w.buf = w.buf[:0]
	return nil
}

// EstimatedSize returns the table size if Finish were called now, ignoring
// filter/index overhead. Used to decide when to cut a table.
func (w *Writer) EstimatedSize() int64 {
	return w.offset + int64(w.dataBlock.EstimatedSize())
}

// NumEntries returns the number of entries added so far.
func (w *Writer) NumEntries() int { return w.numEntries }

// Empty reports whether nothing has been added.
func (w *Writer) Empty() bool { return w.numEntries == 0 }

// Finish appends the filter block, index block, and footer, writes the
// table out, and returns its description. It does not sync.
func (w *Writer) Finish() (TableInfo, error) {
	if w.finished {
		return TableInfo{}, errors.New("sstable: double Finish")
	}
	w.finished = true
	if err := w.flushDataBlock(); err != nil {
		return TableInfo{}, err
	}
	if w.pendingIndex {
		w.addIndexEntry(keys.Successor(w.scratch[:0], keys.InternalKey(w.lastKey)))
	}

	var filterHandle blockHandle
	if w.cfg.BloomBitsPerKey > 0 {
		// The filter is built in place behind the buffered blocks, then
		// framed like any other block.
		start := len(w.buf)
		w.buf = bloom.AppendFilter(w.buf, w.keyHashes, w.cfg.BloomBitsPerKey)
		filterHandle = w.frameBlock(start)
	}
	indexHandle := w.appendBlock(w.indexB.Finish())

	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(indexHandle.offset))
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(indexHandle.length))
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(filterHandle.offset))
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(filterHandle.length))
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(w.numEntries))
	w.buf = binary.LittleEndian.AppendUint64(w.buf, Magic)
	w.offset += FooterSize
	if err := w.writeBuffered(); err != nil {
		return TableInfo{}, err
	}

	metaSize := int64(FooterSize) + indexHandle.length + blockTrailerSize
	if filterHandle.length > 0 {
		metaSize += filterHandle.length + blockTrailerSize
	}
	return TableInfo{
		Base:       w.base,
		Size:       w.offset,
		Smallest:   w.smallest,
		Largest:    append(keys.InternalKey(nil), w.lastKey...),
		NumEntries: w.numEntries,
		MetaSize:   metaSize,
	}, nil
}
