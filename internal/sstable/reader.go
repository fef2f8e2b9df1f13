package sstable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"github.com/bolt-lsm/bolt/internal/block"
	"github.com/bolt-lsm/bolt/internal/bloom"
	"github.com/bolt-lsm/bolt/internal/iterator"
	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// BlockCache caches decoded data blocks across readers. Implemented by
// internal/cache; declared here so sstable does not depend on the cache
// package.
//
// Ownership rule: Insert transfers ownership of data to the cache — the
// inserting reader must pass a buffer it will never write again
// (readBlockDirect allocates a fresh payload per miss). Get returns the
// shared backing array, not a copy; callers must treat it as read-only,
// because every hit for that block observes the same bytes. The engine
// upholds this by copying before anything crosses its public API:
// Reader.Get copies the value, and the DB iterator copies both key and
// value into its own buffers.
type BlockCache interface {
	// Get returns the cached block for (tableID, offset), if present.
	// The returned slice is shared; it must not be modified.
	Get(tableID uint64, off int64) ([]byte, bool)
	// Insert adds a block to the cache, taking ownership of data.
	Insert(tableID uint64, off int64, data []byte)
}

// CorruptionError is a corruption finding that names its victim: the
// logical table, the physical file owning the bytes, and the absolute
// offset of the damaged region within that physical file (-1 when the
// damage cannot be localized). It unwraps to ErrCorrupt, so existing
// errors.Is classification keeps working; quarantine and operators use the
// identity fields to find the file without guessing.
type CorruptionError struct {
	// TableID is the logical table number (0 when unknown, e.g. repair).
	TableID uint64
	// PhysNum is the physical file number owning the corrupt bytes.
	PhysNum uint64
	// Offset is the absolute offset of the damaged region within the
	// physical file, or -1 when it cannot be localized.
	Offset int64
	// Detail describes the finding.
	Detail string
	// Err optionally chains the underlying parse error (e.g. from package
	// block).
	Err error
}

// Error describes the finding with its victim identity.
func (e *CorruptionError) Error() string {
	detail := e.Detail
	if e.Err != nil {
		if detail != "" {
			detail += ": "
		}
		detail += e.Err.Error()
	}
	return fmt.Sprintf("sstable: corrupt: %s (table %d, phys file %d, offset %d)",
		detail, e.TableID, e.PhysNum, e.Offset)
}

// Unwrap ties the error into the ErrCorrupt class and preserves the
// underlying cause for errors.Is/As.
func (e *CorruptionError) Unwrap() []error {
	if e.Err != nil {
		return []error{ErrCorrupt, e.Err}
	}
	return []error{ErrCorrupt}
}

// Reader reads one (possibly logical) table. Opening a reader costs one
// metadata read covering the filter block, index block, and footer — this
// is exactly the TableCache miss penalty the paper analyses: it grows
// linearly with table size.
type Reader struct {
	f       vfs.File
	tableID uint64
	physNum uint64
	base    int64
	size    int64

	index      *block.Reader
	filter     bloom.Filter
	metaSize   int64
	numEntries int

	cache BlockCache // may be nil
}

// corruptf builds a CorruptionError at absolute physical-file offset off.
func (r *Reader) corruptf(off int64, err error, format string, args ...any) error {
	return &CorruptionError{
		TableID: r.tableID,
		PhysNum: r.physNum,
		Offset:  off,
		Detail:  fmt.Sprintf(format, args...),
		Err:     err,
	}
}

// footer is a decoded table footer: the index and filter block handles and
// the entry count. On disk each is a little-endian uint64, and the magic
// number is the last.
type footer struct {
	index, filter blockHandle
	numEntries    int
}

// readFooter reads and decodes the table's footer, its last FooterSize
// bytes. A footer without the magic number is a corruption finding.
func (r *Reader) readFooter() (footer, error) {
	var buf [FooterSize]byte
	off := r.base + r.size - FooterSize
	if err := vfs.ReadFull(r.f, buf[:], off); err != nil {
		return footer{}, fmt.Errorf("sstable: read footer: %w", err)
	}
	u := func(i int) int64 { return int64(binary.LittleEndian.Uint64(buf[8*i:])) }
	if magic := uint64(u(5)); magic != Magic {
		return footer{}, r.corruptf(off, nil, "bad magic %#x", magic)
	}
	return footer{index: blockHandle{u(0), u(1)}, filter: blockHandle{u(2), u(3)}, numEntries: int(u(4))}, nil
}

// TableStart returns the offset in f of the table that ends at end, read
// from its footer: the index block is always the last block before the
// footer, so the table spans the index block's end, its trailer and the
// footer. ok is false when no table's footer ends at end.
func TableStart(f vfs.File, end int64) (start int64, ok bool) {
	ft, err := (&Reader{f: f, size: end}).readFooter()
	if err != nil {
		return 0, false
	}
	size := ft.index.offset + ft.index.length + blockTrailerSize + FooterSize
	if size <= 0 || size > end {
		return 0, false
	}
	return end - size, true
}

// OpenReader parses the table at (base, size) in f. tableID must be unique
// per table (the engine uses the table's file number); it keys the block
// cache. physNum names the physical file holding the bytes, so corruption
// findings can identify the victim file.
func OpenReader(f vfs.File, tableID, physNum uint64, base, size int64, cache BlockCache) (*Reader, error) {
	r := &Reader{f: f, tableID: tableID, physNum: physNum, base: base, size: size, cache: cache}
	if size < FooterSize {
		return nil, r.corruptf(base, nil, "table too small (%d bytes)", size)
	}
	ft, err := r.readFooter()
	if err != nil {
		return nil, err
	}
	indexH, filterH := ft.index, ft.filter

	// Read filter + index in a single contiguous metadata read, mirroring
	// the single large I/O a real TableCache miss incurs.
	metaStart := indexH.offset
	if filterH.length > 0 && filterH.offset < metaStart {
		metaStart = filterH.offset
	}
	metaEnd := base + size - FooterSize
	metaLen := metaEnd - (base + metaStart)
	if metaLen < 0 || base+metaStart < base {
		return nil, r.corruptf(base+size-FooterSize, nil, "meta region out of range")
	}
	meta := make([]byte, metaLen)
	if err := vfs.ReadFull(f, meta, base+metaStart); err != nil {
		return nil, fmt.Errorf("sstable: read meta: %w", err)
	}
	checkBlock := func(h blockHandle) ([]byte, error) {
		lo := h.offset - metaStart
		hi := lo + h.length
		// Validate in a wrap-safe order: footer fields are attacker-
		// controlled uint64s that may be negative after conversion or
		// overflow when summed.
		if h.offset < 0 || h.length < 0 || lo < 0 || hi < lo ||
			hi+blockTrailerSize > int64(len(meta)) || hi+blockTrailerSize < hi {
			return nil, r.corruptf(base+size-FooterSize, nil, "meta handle out of range")
		}
		data := meta[lo:hi]
		want := binary.LittleEndian.Uint32(meta[hi : hi+blockTrailerSize])
		if got := crc32.Checksum(data, castagnoli); got != want {
			return nil, r.corruptf(base+h.offset, nil, "meta block checksum")
		}
		return data, nil
	}

	indexData, err := checkBlock(indexH)
	if err != nil {
		return nil, err
	}
	index, err := block.NewReader(indexData)
	if err != nil {
		return nil, r.corruptf(base+indexH.offset, err, "parse index")
	}
	var filter bloom.Filter
	if filterH.length > 0 {
		fdata, err := checkBlock(filterH)
		if err != nil {
			return nil, err
		}
		filter = bloom.Filter(fdata)
	}
	r.index, r.filter = index, filter
	r.metaSize, r.numEntries = metaLen+FooterSize, ft.numEntries
	return r, nil
}

// MetaSize returns the filter+index+footer byte count — the TableCache
// miss penalty for this table.
func (r *Reader) MetaSize() int64 { return r.metaSize }

// NumEntries returns the entry count recorded in the footer.
func (r *Reader) NumEntries() int { return r.numEntries }

// MayContain consults the Bloom filter; a false result proves absence.
func (r *Reader) MayContain(userKey []byte) bool {
	if r.filter == nil {
		return true
	}
	return r.filter.MayContain(userKey)
}

// readBlock returns the data block at h, consulting the block cache.
func (r *Reader) readBlock(h blockHandle) ([]byte, error) {
	if err := r.checkHandle(h); err != nil {
		return nil, err
	}
	if r.cache != nil {
		if data, ok := r.cache.Get(r.tableID, h.offset); ok {
			return data, nil
		}
	}
	payload, err := r.readBlockDirect(h)
	if err != nil {
		return nil, err
	}
	if r.cache != nil {
		r.cache.Insert(r.tableID, h.offset, payload)
	}
	return payload, nil
}

// checkHandle bounds-checks a block handle against the table extent.
func (r *Reader) checkHandle(h blockHandle) error {
	if h.offset < 0 || h.length < 0 || h.offset+h.length+blockTrailerSize > r.size {
		return r.corruptf(-1, nil, "block handle out of range (offset %d, length %d)", h.offset, h.length)
	}
	return nil
}

// readBlockDirect reads and checksum-validates the data block at h straight
// from the file, bypassing the block cache in both directions. Scrub and
// salvage use it: they must observe the at-rest bytes, not a cached copy
// read before the rot.
func (r *Reader) readBlockDirect(h blockHandle) ([]byte, error) {
	data := make([]byte, h.length+blockTrailerSize)
	if err := vfs.ReadFull(r.f, data, r.base+h.offset); err != nil {
		return nil, fmt.Errorf("sstable: read block at %d: %w", h.offset, err)
	}
	payload := data[:h.length]
	want := binary.LittleEndian.Uint32(data[h.length:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, r.corruptf(r.base+h.offset, nil, "data block checksum")
	}
	return payload, nil
}

// Get searches for ikey and returns the first entry at-or-after it whose
// user key matches — i.e. the newest version visible at ikey's sequence
// number. found=false means the table holds no visible version. The seq
// return lets callers searching overlapping tables (L0, fragmented levels)
// select the newest version across tables.
func (r *Reader) Get(ikey keys.InternalKey) (value []byte, seq keys.Seq, kind keys.Kind, found bool, err error) {
	if !r.MayContain(ikey.UserKey()) {
		return nil, 0, 0, false, nil
	}
	// Stack-allocated readers and iterators: Get runs once per table probed
	// per lookup, so heap traffic here multiplies by read amplification.
	var idx block.Iter
	idx.Init(r.index)
	if !idx.Seek(ikey) {
		return nil, 0, 0, false, idx.Err()
	}
	h, err := decodeHandle(idx.Value())
	if err != nil {
		return nil, 0, 0, false, r.corruptf(-1, err, "index entry handle")
	}
	data, err := r.readBlock(h)
	if err != nil {
		return nil, 0, 0, false, err
	}
	var br block.Reader
	if err := br.Init(data); err != nil {
		return nil, 0, 0, false, r.corruptf(r.base+h.offset, err, "parse data block")
	}
	var it block.Iter
	it.Init(&br)
	if !it.Seek(ikey) {
		return nil, 0, 0, false, it.Err()
	}
	if keys.CompareUser(it.Key().UserKey(), ikey.UserKey()) != 0 {
		return nil, 0, 0, false, nil
	}
	return append([]byte(nil), it.Value()...), it.Key().Seq(), it.Key().Kind(), true, nil
}

// IterOpts controls table iteration.
type IterOpts struct {
	// Readahead, when positive, makes the iterator fetch data in chunks of
	// at least this many bytes, bypassing the block cache. Compactions use
	// it so their sequential reads do not pay a device op per 4 KiB block
	// and do not pollute the cache.
	Readahead int64
}

// NewIter returns an iterator over the table.
func (r *Reader) NewIter(opts IterOpts) *Iter {
	t := new(Iter)
	t.Init(r, opts)
	return t
}

// readaheadBufs recycles readahead buffers across table iterators: a
// compaction walks hundreds of tables, each through one buffer the size of
// its readahead chunk, and allocating (and zeroing) a fresh one per table
// costs more than the read that fills it.
var readaheadBufs sync.Pool

// Iter is the two-level table iterator: index iterator over block handles,
// block iterator within the current data block. The block reader and both
// block iterators are embedded and re-initialized per block, so walking a
// table allocates nothing beyond the iterator itself — and Init re-points
// it at another table keeping its key buffers, so an owner that embeds one
// and walks a sequence of tables allocates nothing per table either.
//
//boltvet:mustclose
type Iter struct {
	r         *Reader
	opts      IterOpts
	indexIter block.Iter
	block     block.Reader
	blockIter block.Iter
	inBlock   bool // blockIter is positioned within a loaded block
	err       error

	// readahead buffer (from readaheadBufs) and the table offset it starts at
	raBuf *[]byte
	raOff int64
}

var _ iterator.Iterator = (*Iter)(nil)

// Init points the iterator at table r, unpositioned. An iterator being
// re-pointed gives up what it held of the previous table first, as Close
// does.
func (t *Iter) Init(r *Reader, opts IterOpts) {
	t.releaseReadahead()
	t.r, t.opts, t.err = r, opts, nil
	t.indexIter.Init(r.index)
}

func (t *Iter) loadBlock() bool {
	t.inBlock = false
	h, err := decodeHandle(t.indexIter.Value())
	if err != nil {
		t.err = t.r.corruptf(-1, err, "index entry handle")
		return false
	}
	var data []byte
	if t.opts.Readahead > 0 {
		data, err = t.readWithReadahead(h)
	} else {
		data, err = t.r.readBlock(h)
	}
	if err != nil {
		t.err = err
		return false
	}
	if err := t.block.Init(data); err != nil {
		t.err = t.r.corruptf(t.r.base+h.offset, err, "parse data block")
		return false
	}
	t.blockIter.Init(&t.block)
	t.inBlock = true
	return true
}

// readWithReadahead serves block h from a sequential readahead buffer.
func (t *Iter) readWithReadahead(h blockHandle) ([]byte, error) {
	if err := t.r.checkHandle(h); err != nil {
		return nil, err
	}
	need := h.length + blockTrailerSize
	if t.raBuf == nil || h.offset < t.raOff || h.offset+need > t.raOff+int64(len(*t.raBuf)) {
		chunk := t.opts.Readahead
		if chunk < need {
			chunk = need
		}
		if h.offset+chunk > t.r.size {
			chunk = t.r.size - h.offset
		}
		if t.raBuf == nil {
			if t.raBuf, _ = readaheadBufs.Get().(*[]byte); t.raBuf == nil {
				t.raBuf = new([]byte)
			}
		}
		buf := *t.raBuf
		if int64(cap(buf)) < chunk {
			buf = make([]byte, chunk)
		}
		buf = buf[:chunk]
		err := vfs.ReadFull(t.r.f, buf, t.r.base+h.offset)
		if err != nil {
			buf = buf[:0] // nothing in it may be served
		}
		*t.raBuf, t.raOff = buf, h.offset
		if err != nil {
			return nil, fmt.Errorf("sstable: readahead at %d: %w", h.offset, err)
		}
	}
	buf := *t.raBuf
	lo := h.offset - t.raOff
	data := buf[lo : lo+h.length]
	want := binary.LittleEndian.Uint32(buf[lo+h.length : lo+need])
	if got := crc32.Checksum(data, castagnoli); got != want {
		return nil, t.r.corruptf(t.r.base+h.offset, nil, "data block checksum")
	}
	return data, nil
}

// releaseReadahead returns the readahead buffer to the pool. Nothing may
// still read the current block: the iterator is exhausted, failed, or
// closed.
func (t *Iter) releaseReadahead() {
	t.inBlock = false
	if t.raBuf != nil {
		readaheadBufs.Put(t.raBuf)
		t.raBuf = nil
	}
}

// First implements iterator.Iterator.
func (t *Iter) First() bool {
	t.err = nil
	t.inBlock = false
	if !t.indexIter.First() {
		t.err = t.indexIter.Err()
		return false
	}
	if !t.loadBlock() {
		return false
	}
	if t.blockIter.First() {
		return true
	}
	return t.nextBlock()
}

// Seek implements iterator.Iterator.
func (t *Iter) Seek(target keys.InternalKey) bool {
	t.err = nil
	t.inBlock = false
	if !t.indexIter.Seek(target) {
		t.err = t.indexIter.Err()
		return false
	}
	if !t.loadBlock() {
		return false
	}
	if t.blockIter.Seek(target) {
		return true
	}
	if err := t.blockIter.Err(); err != nil {
		t.err = err
		return false
	}
	return t.nextBlock()
}

// nextBlock advances to the first entry of the next data block. Running off
// the table's end gives the readahead buffer back early: a merge keeps its
// exhausted sources open until the whole merge closes.
func (t *Iter) nextBlock() bool {
	for {
		if !t.indexIter.Next() {
			t.err = t.indexIter.Err()
			t.releaseReadahead()
			return false
		}
		if !t.loadBlock() {
			return false
		}
		if t.blockIter.First() {
			return true
		}
		if err := t.blockIter.Err(); err != nil {
			t.err = err
			return false
		}
	}
}

// Next implements iterator.Iterator.
func (t *Iter) Next() bool {
	if !t.Valid() {
		return false
	}
	if t.blockIter.Next() {
		return true
	}
	if err := t.blockIter.Err(); err != nil {
		t.err = err
		return false
	}
	return t.nextBlock()
}

// Valid implements iterator.Iterator.
func (t *Iter) Valid() bool {
	return t.err == nil && t.inBlock && t.blockIter.Valid()
}

// Key implements iterator.Iterator.
func (t *Iter) Key() keys.InternalKey {
	if !t.Valid() {
		return nil
	}
	return t.blockIter.Key()
}

// Value implements iterator.Iterator.
func (t *Iter) Value() []byte {
	if !t.Valid() {
		return nil
	}
	return t.blockIter.Value()
}

// Err implements iterator.Iterator.
func (t *Iter) Err() error { return t.err }

// Close implements iterator.Iterator. The underlying file is owned by the
// table cache, not the iterator.
func (t *Iter) Close() error {
	t.releaseReadahead()
	return nil
}
