package sstable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// goldenPairs is a fixed input covering what the format encodes: several
// versions of one user key, tombstones, empty and multi-block values.
func goldenPairs(seed int64, n int) []pair {
	rng := rand.New(rand.NewSource(seed))
	var out []pair
	seq := uint64(1 << 20)
	for i := 0; i < n; i++ {
		user := fmt.Sprintf("user%06d-%04x", i, rng.Intn(1<<16))
		for v := rng.Intn(3); v >= 0; v-- {
			kind := keys.KindSet
			value := make([]byte, rng.Intn(600))
			rng.Read(value)
			if rng.Intn(10) == 0 {
				kind, value = keys.KindDelete, nil
			}
			seq--
			out = append(out, pair{k: ik(user, seq, kind), v: value})
		}
	}
	return out
}

// goldenTables writes three logical tables back to back into one file, the
// way a compaction file holds them, and returns the file's bytes. newWriter
// supplies the writer of each table.
func goldenTables(t *testing.T, newWriter func(f vfs.File, base int64, cfg Config) *Writer) []byte {
	t.Helper()
	fs := vfs.NewMem()
	f, err := fs.Create("golden.sst")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{BlockSize: 4096, EntryPadding: 88, BloomBitsPerKey: 10}
	var base int64
	for i, n := range []int{900, 1, 2500} {
		w := newWriter(f, base, cfg)
		for _, p := range goldenPairs(int64(i+1), n) {
			if err := w.Add(p.k, p.v); err != nil {
				t.Fatal(err)
			}
		}
		info, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if info.Base != base {
			t.Fatalf("table %d base = %d, want %d", i, info.Base, base)
		}
		base += info.Size
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := vfs.ReadWholeFile(fs, "golden.sst")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != base {
		t.Fatalf("file holds %d bytes, tables report %d", len(data), base)
	}
	return data
}

// goldenSHA256 was recorded from the writer that issued two Write calls per
// block: the on-disk format is a contract, and buffering must not move a
// byte of it.
const goldenSHA256 = "be304916cdc0851cd2519a38bd59972fec156dd4a54ef0cc48824ac525ad2be1"

func TestWriterBytesMatchGolden(t *testing.T) {
	data := goldenTables(t, NewWriter)
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != goldenSHA256 {
		t.Fatalf("table bytes changed: sha256 %s (%d bytes), want %s", got, len(data), goldenSHA256)
	}
}

// TestWriterResetMatchesFreshWriters: a writer reused across the tables of
// one output produces the bytes fresh writers do.
func TestWriterResetMatchesFreshWriters(t *testing.T) {
	var reused *Writer
	got := goldenTables(t, func(f vfs.File, base int64, cfg Config) *Writer {
		if reused == nil {
			reused = NewWriter(f, base, cfg)
		} else {
			reused.Reset(f, base)
		}
		return reused
	})
	if want := goldenTables(t, NewWriter); !bytes.Equal(got, want) {
		t.Fatalf("reused writer wrote %d bytes differing from fresh writers' %d", len(got), len(want))
	}
}

// writeCounter counts the Write calls reaching a file and can make one of
// them fail or come up short.
type writeCounter struct {
	vfs.File
	writes int
	// failAt is the 1-based Write call to sabotage (0 = none); short makes
	// it a short write (n < len(p), nil error) instead of an error.
	failAt int
	short  bool
}

var errInjected = errors.New("injected write failure")

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes++
	if c.writes == c.failAt {
		if c.short {
			return c.File.Write(p[:len(p)/2])
		}
		return 0, errInjected
	}
	return c.File.Write(p)
}

func TestWriterIssuesOneWritePerTable(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	wc := &writeCounter{File: f}
	w := NewWriter(wc, 0, Config{BlockSize: 4096, BloomBitsPerKey: 10})
	for _, p := range numberedPairs(2000) { // ~20 data blocks
		if err := w.Add(p.k, p.v); err != nil {
			t.Fatal(err)
		}
	}
	if wc.writes != 0 {
		t.Fatalf("%d writes before Finish", wc.writes)
	}
	info, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if wc.writes != 1 {
		t.Fatalf("%d writes for one table, want 1", wc.writes)
	}
	if size, _ := f.Size(); size != info.Size {
		t.Fatalf("file size %d, table size %d", size, info.Size)
	}
}

// TestWriterBoundsItsBuffer: a table larger than maxBufferedBytes drains
// the buffer as it fills and still reads back whole.
func TestWriterBoundsItsBuffer(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("big.sst")
	wc := &writeCounter{File: f}
	w := NewWriter(wc, 0, Config{BlockSize: 4096, BloomBitsPerKey: 10})
	value := bytes.Repeat([]byte("v"), 1000)
	const n = 3 * maxBufferedBytes / 1000
	for i := 0; i < n; i++ {
		if err := w.Add(ik(fmt.Sprintf("user%08d", i), uint64(i+1), keys.KindSet), value); err != nil {
			t.Fatal(err)
		}
		if len(w.buf) >= maxBufferedBytes+2*4096 {
			t.Fatalf("buffer grew to %d bytes", len(w.buf))
		}
	}
	info, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if wc.writes < 3 || wc.writes > 4 {
		t.Fatalf("%d writes for a %d-byte table", wc.writes, info.Size)
	}
	r, err := OpenReader(f, 1, 1, 0, info.Size, nil)
	if err != nil {
		t.Fatal(err)
	}
	it := r.NewIter(IterOpts{})
	count := 0
	for ok := it.First(); ok; ok = it.Next() {
		count++
	}
	if err := it.Err(); err != nil || count != n {
		t.Fatalf("read back %d of %d entries, err %v", count, n, err)
	}
}

func TestWriterSurfacesFailedAndShortWrites(t *testing.T) {
	for _, short := range []bool{false, true} {
		fs := vfs.NewMem()
		f, _ := fs.Create("t.sst")
		wc := &writeCounter{File: f, failAt: 1, short: short}
		w := NewWriter(wc, 0, Config{})
		for _, p := range numberedPairs(100) {
			if err := w.Add(p.k, p.v); err != nil {
				t.Fatal(err)
			}
		}
		_, err := w.Finish()
		want := errInjected
		if short {
			want = io.ErrShortWrite
		}
		if !errors.Is(err, want) {
			t.Fatalf("short=%v: Finish error = %v, want %v", short, err, want)
		}
	}
}
