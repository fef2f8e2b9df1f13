package vlog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"github.com/bolt-lsm/bolt/internal/vfs"
)

// frame wraps an arbitrary payload in a header with valid CRCs — what bit
// rot cannot produce but a decoder must still survive.
func frame(payload []byte) []byte {
	hdr := make([]byte, HeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], maskCRC(crc32.Checksum(hdr[0:4], castagnoli)))
	binary.LittleEndian.PutUint32(hdr[8:12], maskCRC(crc32.Checksum(payload, castagnoli)))
	return append(hdr, payload...)
}

// FuzzWalk feeds arbitrary bytes as a segment image. Walk must not panic,
// must stop inside [from, size], and must visit records back to back; an
// intact record's key and value must be the tail of the bytes it was read
// from.
func FuzzWalk(f *testing.F) {
	seg := appendRecord(nil, []byte("alpha"), []byte("first-value"))
	second := len(seg)
	seg = appendRecord(seg, []byte("beta"), bytes.Repeat([]byte("x"), 300))
	third := len(seg)
	seg = appendRecord(seg, []byte("gamma"), nil)
	f.Add(seg, uint16(0), int8(0))
	f.Add(seg, uint16(second), int8(0))
	f.Add(seg[:third+5], uint16(0), int8(0)) // torn header
	f.Add(seg, uint16(0), int8(-3))          // size cuts the last payload
	f.Add(seg, uint16(0), int8(9))           // size past the file's end
	punched := append([]byte(nil), seg...)
	for i := second + HeaderSize; i < third; i++ {
		punched[i] = 0
	}
	f.Add(punched, uint16(0), int8(0))
	f.Add(frame(binary.AppendUvarint(nil, 1<<64-1)), uint16(0), int8(0)) // key length near 2^64
	f.Add(frame(binary.AppendUvarint(nil, 1<<63)), uint16(0), int8(0))
	f.Add([]byte{}, uint16(0), int8(0))

	f.Fuzz(func(t *testing.T, data []byte, from uint16, slack int8) {
		fs := vfs.NewMem()
		if err := vfs.WriteFile(fs, "seg", data); err != nil {
			t.Fatal(err)
		}
		file, err := fs.Open("seg")
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		start, size := int64(from), int64(len(data))+int64(slack)
		next := start
		valid, err := Walk(file, start, size, func(r WalkRecord) error {
			if r.Off != next || r.Len < HeaderSize+1 {
				t.Fatalf("record at %d+%d, expected at %d", r.Off, r.Len, next)
			}
			next = r.Off + r.Len
			if r.PayloadOK {
				kv := append(append([]byte(nil), r.Key...), r.Value...)
				if !bytes.HasSuffix(data[r.Off:next], kv) {
					t.Fatalf("record at %d yields key %x value %x, read from %x", r.Off, r.Key, r.Value, data[r.Off:next])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("Walk: %v", err)
		}
		if valid != next || (valid > size && valid != start) {
			t.Fatalf("Walk(from %d, size %d) = %d after records ending at %d", start, size, valid, next)
		}
	})
}

// FuzzDecodePointer: decoding must not panic, never yields a negative
// offset or length (they index files and size buffers), and a decoded
// pointer's own encoding decodes back to it, no longer than the input.
func FuzzDecodePointer(f *testing.F) {
	f.Add(Pointer{Seg: 7, Off: 4096, Len: 13}.Encode(nil))
	f.Add(Pointer{Seg: 1<<40 + 7, Off: 1<<33 + 5, Len: 1 << 20}.Encode(nil))
	f.Add([]byte{})
	f.Add([]byte{0x80})
	near := binary.AppendUvarint(nil, 1<<64-1)
	f.Add(bytes.Repeat(near, 3))
	f.Add(append(append([]byte{1}, near...), 1))
	f.Add([]byte{0x80, 0x00, 0x80, 0x00, 0x80, 0x00}) // non-minimal varints

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePointer(data)
		if err != nil {
			return
		}
		if p.Off < 0 || p.Len < 0 {
			t.Fatalf("DecodePointer(%x) = %+v", data, p)
		}
		enc := p.Encode(nil)
		if back, err := DecodePointer(enc); err != nil || back != p || len(enc) > len(data) {
			t.Fatalf("%+v from %x re-encodes to %x, decoding to %+v, %v", p, data, enc, back, err)
		}
	})
}
