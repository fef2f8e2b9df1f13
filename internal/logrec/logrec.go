// Package logrec implements LevelDB's log record format, used both by the
// write-ahead log and by the MANIFEST. The file is a sequence of 32 KiB
// blocks; each record is split into fragments that never span a block
// boundary. A fragment has a 7-byte header: CRC32C (4), length (2), type
// (1), where type marks the fragment as full, first, middle, or last. The
// format tolerates torn tails: a reader stops cleanly at the first corrupt
// or incomplete fragment, which is exactly the property recovery needs.
package logrec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// BlockSize is the log block size.
const BlockSize = 32 * 1024

// headerSize is the per-fragment header size.
const headerSize = 7

// Fragment types.
const (
	typeFull   = 1
	typeFirst  = 2
	typeMiddle = 3
	typeLast   = 4
)

// ErrCorrupt reports a corrupt (but not merely truncated) log fragment.
var ErrCorrupt = errors.New("logrec: corrupt fragment")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// typeCRC holds the CRC of each one-byte fragment type, the seed a
// fragment's checksum continues from over its payload (LevelDB's
// type_crc_). All 256 values are covered so a corrupt type byte still
// indexes it.
var typeCRC = func() (t [256]uint32) {
	for i := range t {
		t[i] = crc32.Checksum([]byte{byte(i)}, castagnoli)
	}
	return t
}()

// fragmentCRC is the masked checksum of a fragment of type ftype.
func fragmentCRC(ftype byte, frag []byte) uint32 {
	return maskCRC(crc32.Update(typeCRC[ftype], castagnoli, frag))
}

// maskCRC applies LevelDB's CRC masking so that CRCs of CRCs behave well.
func maskCRC(c uint32) uint32 { return ((c >> 15) | (c << 17)) + 0xa282ead8 }

// Writer appends records to an underlying writer in the log format.
type Writer struct {
	w           io.Writer
	blockOffset int // current offset within the block
	buf         [BlockSize]byte
}

// NewWriter returns a log writer appending to w. If the underlying file
// already has data (reopened log), pass its size via Reset.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// Reset re-targets the writer at w with the given pre-existing file size so
// block boundaries stay aligned.
func (lw *Writer) Reset(w io.Writer, fileSize int64) {
	lw.w = w
	lw.blockOffset = int(fileSize % BlockSize)
}

// WriteRecord appends one record containing data.
func (lw *Writer) WriteRecord(data []byte) error {
	begin := true
	for {
		leftover := BlockSize - lw.blockOffset
		if leftover < headerSize {
			// Pad the block trailer with zeros and start a new block.
			if leftover > 0 {
				pad := lw.buf[:leftover]
				clear(pad)
				if _, err := lw.w.Write(pad); err != nil {
					return fmt.Errorf("logrec: pad block: %w", err)
				}
			}
			lw.blockOffset = 0
			leftover = BlockSize
		}
		avail := leftover - headerSize
		frag := data
		if len(frag) > avail {
			frag = frag[:avail]
		}
		data = data[len(frag):]
		end := len(data) == 0

		var ftype byte
		switch {
		case begin && end:
			ftype = typeFull
		case begin:
			ftype = typeFirst
		case end:
			ftype = typeLast
		default:
			ftype = typeMiddle
		}
		if err := lw.writeFragment(ftype, frag); err != nil {
			return err
		}
		begin = false
		if end {
			return nil
		}
	}
}

func (lw *Writer) writeFragment(ftype byte, frag []byte) error {
	buf := lw.buf[:headerSize+len(frag)]
	binary.LittleEndian.PutUint32(buf[0:4], fragmentCRC(ftype, frag))
	binary.LittleEndian.PutUint16(buf[4:6], uint16(len(frag)))
	buf[6] = ftype
	copy(buf[headerSize:], frag)
	if _, err := lw.w.Write(buf); err != nil {
		return fmt.Errorf("logrec: write fragment: %w", err)
	}
	lw.blockOffset += len(buf)
	return nil
}

// Reader reads records from a log file image.
type Reader struct {
	data []byte // whole file contents
	pos  int
	// Strict makes corrupt fragments an error instead of a clean stop; the
	// WAL replays with Strict=false (tolerate torn tail), tests may set it.
	Strict bool
}

// NewReader returns a reader over the full log contents.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Next returns the next record, or io.EOF when the log is exhausted or the
// tail is torn. With Strict set, corruption returns ErrCorrupt.
func (lr *Reader) Next() ([]byte, error) {
	var record []byte
	inFragmented := false
	for {
		blockRemain := BlockSize - lr.pos%BlockSize
		if blockRemain < headerSize {
			lr.pos += blockRemain // skip trailer padding
		}
		if lr.pos+headerSize > len(lr.data) {
			return nil, io.EOF
		}
		hdr := lr.data[lr.pos : lr.pos+headerSize]
		length := int(binary.LittleEndian.Uint16(hdr[4:6]))
		ftype := hdr[6]
		if ftype == 0 && length == 0 {
			// Zero padding (preallocated space); treat as end.
			return nil, io.EOF
		}
		if lr.pos+headerSize+length > len(lr.data) {
			return nil, lr.fail("truncated fragment")
		}
		frag := lr.data[lr.pos+headerSize : lr.pos+headerSize+length]
		if binary.LittleEndian.Uint32(hdr[0:4]) != fragmentCRC(ftype, frag) {
			return nil, lr.fail("bad checksum")
		}
		lr.pos += headerSize + length

		switch ftype {
		case typeFull:
			if inFragmented {
				return nil, lr.fail("full fragment inside record")
			}
			return append([]byte(nil), frag...), nil
		case typeFirst:
			if inFragmented {
				return nil, lr.fail("first fragment inside record")
			}
			record = append(record[:0], frag...)
			inFragmented = true
		case typeMiddle:
			if !inFragmented {
				return nil, lr.fail("middle fragment outside record")
			}
			record = append(record, frag...)
		case typeLast:
			if !inFragmented {
				return nil, lr.fail("last fragment outside record")
			}
			return append(record, frag...), nil
		default:
			return nil, lr.fail("unknown fragment type")
		}
	}
}

func (lr *Reader) fail(reason string) error {
	if lr.Strict {
		return fmt.Errorf("%w: %s at offset %d", ErrCorrupt, reason, lr.pos)
	}
	return io.EOF
}
