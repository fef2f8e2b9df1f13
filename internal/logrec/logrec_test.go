package logrec

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func writeAll(t *testing.T, records [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range records {
		if err := w.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func readAll(data []byte, strict bool) ([][]byte, error) {
	r := NewReader(data)
	r.Strict = strict
	var out [][]byte
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

func TestRoundTripSmall(t *testing.T) {
	records := [][]byte{[]byte("one"), []byte(""), []byte("three"), bytes.Repeat([]byte("x"), 100)}
	got, err := readAll(writeAll(t, records), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("got %d records, want %d", len(got), len(records))
	}
	for i := range records {
		if !bytes.Equal(got[i], records[i]) {
			t.Errorf("record %d mismatch", i)
		}
	}
}

func TestRoundTripSpanningBlocks(t *testing.T) {
	// Records larger than a block must fragment and reassemble.
	records := [][]byte{
		bytes.Repeat([]byte("a"), BlockSize-10),
		bytes.Repeat([]byte("b"), BlockSize),
		bytes.Repeat([]byte("c"), 3*BlockSize+17),
		[]byte("tail"),
	}
	got, err := readAll(writeAll(t, records), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("got %d records, want %d", len(got), len(records))
	}
	for i := range records {
		if !bytes.Equal(got[i], records[i]) {
			t.Errorf("record %d mismatch: len %d vs %d", i, len(got[i]), len(records[i]))
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(sizes []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var records [][]byte
		for _, s := range sizes {
			r := make([]byte, int(s)%5000)
			rng.Read(r)
			records = append(records, r)
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range records {
			if err := w.WriteRecord(r); err != nil {
				return false
			}
		}
		got, err := readAll(buf.Bytes(), true)
		if err != nil || len(got) != len(records) {
			return false
		}
		for i := range records {
			if !bytes.Equal(got[i], records[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailStopsCleanly(t *testing.T) {
	records := [][]byte{[]byte("first"), []byte("second"), bytes.Repeat([]byte("z"), 200)}
	data := writeAll(t, records)
	// Truncate mid-way through the last record's fragment.
	torn := data[:len(data)-50]
	got, err := readAll(torn, false)
	if err != nil {
		t.Fatalf("non-strict read of torn log: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records from torn log, want 2", len(got))
	}
}

func TestCorruptChecksumDetected(t *testing.T) {
	data := writeAll(t, [][]byte{[]byte("payload-payload")})
	data[10] ^= 0xff // flip a payload byte
	_, err := readAll(data, true)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict read of corrupt log = %v, want ErrCorrupt", err)
	}
	got, err := readAll(data, false)
	if err != nil || len(got) != 0 {
		t.Fatalf("non-strict read should stop cleanly, got %d records err %v", len(got), err)
	}
}

func TestZeroPaddingTreatedAsEOF(t *testing.T) {
	data := writeAll(t, [][]byte{[]byte("rec")})
	data = append(data, make([]byte, 100)...) // preallocated zero tail
	got, err := readAll(data, true)
	if err != nil || len(got) != 1 {
		t.Fatalf("zero tail: got %d records err %v", len(got), err)
	}
}

func TestResetContinuesAtBlockBoundary(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecord(bytes.Repeat([]byte("a"), 1000)); err != nil {
		t.Fatal(err)
	}
	// Simulate reopening the log: a new writer must honor the existing size.
	w2 := NewWriter(nil)
	w2.Reset(&buf, int64(buf.Len()))
	if err := w2.WriteRecord(bytes.Repeat([]byte("b"), BlockSize*2)); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(buf.Bytes(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got[1]) != BlockSize*2 {
		t.Fatalf("reopen roundtrip failed: %d records", len(got))
	}
}

func TestTypeSeedMatchesChecksumOfType(t *testing.T) {
	frag := []byte("fragment payload")
	for ftype := 0; ftype < 256; ftype++ {
		want := maskCRC(crc32.Update(crc32.Checksum([]byte{byte(ftype)}, castagnoli), castagnoli, frag))
		if got := fragmentCRC(byte(ftype), frag); got != want {
			t.Fatalf("type %d: fragmentCRC %#x, want %#x", ftype, got, want)
		}
	}
}

// BenchmarkWriteRecord frames load's WAL record shape (292 bytes: one Put
// of a 23-byte key and a 256-byte value) into a discarding writer, block
// trailers and records split across blocks included.
func BenchmarkWriteRecord(b *testing.B) {
	rec := make([]byte, 292)
	w := NewWriter(io.Discard)
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.WriteRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
}
