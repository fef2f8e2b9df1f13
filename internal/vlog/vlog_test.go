package vlog

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/bolt-lsm/bolt/internal/vfs"
)

func TestPointerCodec(t *testing.T) {
	cases := []Pointer{
		{},
		{Seg: 1, Off: 0, Len: 13},
		{Seg: 1<<40 + 7, Off: 1<<33 + 5, Len: 1 << 20},
	}
	for _, want := range cases {
		enc := want.Encode(nil)
		got, err := DecodePointer(enc)
		if err != nil {
			t.Fatalf("DecodePointer(%v): %v", want, err)
		}
		if got != want {
			t.Fatalf("roundtrip: got %v want %v", got, want)
		}
	}
	if _, err := DecodePointer(nil); err == nil {
		t.Fatal("DecodePointer(nil) succeeded")
	}
	if _, err := DecodePointer([]byte{0x80}); err == nil {
		t.Fatal("DecodePointer(truncated varint) succeeded")
	}
}

func TestWriterReaderRoundtrip(t *testing.T) {
	fs := vfs.NewMem()
	w, err := NewWriter(fs, "000007.vlog", 7)
	if err != nil {
		t.Fatal(err)
	}
	type kv struct{ k, v string }
	items := []kv{
		{"alpha", "first-value"},
		{"beta", string(bytes.Repeat([]byte("x"), 4096))},
		{"gamma", ""},
	}
	var ptrs []Pointer
	for _, it := range items {
		p, err := w.Append([]byte(it.k), []byte(it.v))
		if err != nil {
			t.Fatal(err)
		}
		if want := EncodedLen(len(it.k), len(it.v)); p.Len != want {
			t.Fatalf("pointer length %d, EncodedLen %d", p.Len, want)
		}
		ptrs = append(ptrs, p)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if w.SyncedSize() != w.Size() {
		t.Fatalf("synced %d != size %d after Sync", w.SyncedSize(), w.Size())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("k"), []byte("v")); err == nil {
		t.Fatal("append after seal succeeded")
	}

	f, err := fs.Open("000007.vlog")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i, p := range ptrs {
		key, value, err := ReadRecord(f, p)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if string(key) != items[i].k || string(value) != items[i].v {
			t.Fatalf("record %d: got (%q, %d value bytes)", i, key, len(value))
		}
	}

	// A pointer into the middle of a record must fail the checksum, not
	// return garbage.
	bad := ptrs[1]
	bad.Off += 2
	if _, _, err := ReadRecord(f, bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("misaligned pointer: got %v, want ErrCorrupt", err)
	}
}

func writeSegment(t *testing.T, fs vfs.FS, name string, seg uint64, n int) []Pointer {
	t.Helper()
	w, err := NewWriter(fs, name, seg)
	if err != nil {
		t.Fatal(err)
	}
	var ptrs []Pointer
	for i := 0; i < n; i++ {
		p, err := w.Append(fmt.Appendf(nil, "key-%03d", i), bytes.Repeat([]byte{byte(i)}, 100+i))
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return ptrs
}

func TestWalkTornTail(t *testing.T) {
	fs := vfs.NewMem()
	ptrs := writeSegment(t, fs, "000001.vlog", 1, 5)
	f, err := fs.Open("000001.vlog")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, _ := f.Size()

	// Destroy the last record's header (zeroed bytes fail the header CRC):
	// the walk must stop exactly at its start and report everything before
	// it valid.
	last := ptrs[len(ptrs)-1]
	if err := f.PunchHole(last.Off, HeaderSize); err != nil {
		t.Fatal(err)
	}
	var seen int
	valid, err := Walk(f, 0, size, func(rec WalkRecord) error {
		if !rec.PayloadOK {
			t.Fatalf("record @%d: payload unexpectedly bad", rec.Off)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if valid != last.Off || seen != len(ptrs)-1 {
		t.Fatalf("walk after torn header: valid=%d seen=%d, want valid=%d seen=%d",
			valid, seen, last.Off, len(ptrs)-1)
	}
	if got, err := ValidLength(f, 0, size); got != last.Off || err != nil {
		t.Fatalf("ValidLength=%d, %v want %d", got, err, last.Off)
	}
}

// TestWalkReturnsReadFault: a read that fails is not a torn tail. Walk
// returns the fault (and the offset it reached) instead of reporting a
// valid prefix that ends at the failed read.
func TestWalkReturnsReadFault(t *testing.T) {
	efs := vfs.NewErrorFS(vfs.NewMem())
	ptrs := writeSegment(t, efs, "000005.vlog", 5, 4)
	f, err := efs.Open("000005.vlog")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, _ := f.Size()
	// Fail the read of the third record's header.
	efs.SetInjector(vfs.FailNth(vfs.OpReadAt, efs.OpCount(vfs.OpReadAt)+5, false))
	valid, err := ValidLength(f, 0, size)
	var inj *vfs.InjectedError
	if !errors.As(err, &inj) || valid != ptrs[2].Off {
		t.Fatalf("ValidLength over a read fault = %d, %v; want %d and the fault", valid, err, ptrs[2].Off)
	}
}

func TestWalkTraversesPunchedPayload(t *testing.T) {
	fs := vfs.NewMem()
	ptrs := writeSegment(t, fs, "000002.vlog", 2, 4)
	f, err := fs.Open("000002.vlog")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, _ := f.Size()

	// Punch record 1's payload (as GC does): header intact, payload zeroed.
	victim := ptrs[1]
	if err := f.PunchHole(victim.Off+HeaderSize, victim.Len-HeaderSize); err != nil {
		t.Fatal(err)
	}

	var bad, good int
	valid, err := Walk(f, 0, size, func(rec WalkRecord) error {
		if rec.PayloadOK {
			good++
		} else {
			bad++
			if rec.Off != victim.Off {
				t.Fatalf("bad payload at %d, punched %d", rec.Off, victim.Off)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if valid != size {
		t.Fatalf("walk over punched payload stopped at %d of %d", valid, size)
	}
	if good != 3 || bad != 1 {
		t.Fatalf("good=%d bad=%d, want 3/1", good, bad)
	}

	// Dereferencing the punched record reports corruption.
	if _, _, err := ReadRecord(f, victim); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("punched read: got %v, want ErrCorrupt", err)
	}
	// Its neighbours still read fine.
	if _, _, err := ReadRecord(f, ptrs[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadRecord(f, ptrs[2]); err != nil {
		t.Fatal(err)
	}
}

func TestWalkCallbackError(t *testing.T) {
	fs := vfs.NewMem()
	writeSegment(t, fs, "000003.vlog", 3, 3)
	f, err := fs.Open("000003.vlog")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, _ := f.Size()
	sentinel := errors.New("stop")
	n := 0
	_, err = Walk(f, 0, size, func(WalkRecord) error {
		n++
		if n == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || n != 2 {
		t.Fatalf("err=%v n=%d, want sentinel at 2", err, n)
	}
}

func TestSealFailedSyncKeepsSyncedSize(t *testing.T) {
	fs := vfs.NewMem()
	w, err := NewWriter(fs, "000004.vlog", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	durable := w.SyncedSize()
	if _, err := w.Append([]byte("k2"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// SyncedSize must not include unsynced appends.
	if w.SyncedSize() != durable {
		t.Fatalf("SyncedSize %d grew without Sync (durable %d)", w.SyncedSize(), durable)
	}
}

// TestWriterSyncBesideAppend: Syncs from two goroutines run beside the
// appending one, as a flush's and a SyncWAL commit's do beside the commit
// leader's. The synced length only grows, never passes the size, and a
// last Sync covers every record.
func TestWriterSyncBesideAppend(t *testing.T) {
	fs := vfs.NewMem()
	w, err := NewWriter(fs, "000009.vlog", 9)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	done := make(chan struct{})
	errs := make(chan error, 2)
	for range 2 {
		go func() {
			var last int64
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				if err := w.Sync(); err != nil {
					errs <- err
					return
				}
				synced := w.SyncedSize()
				if synced < last || synced > w.Size() {
					errs <- fmt.Errorf("synced %d after %d, size %d", synced, last, w.Size())
					return
				}
				last = synced
			}
		}()
	}
	value := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 2000; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("k%04d", i)), value); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if want := 2000 * EncodedLen(5, 100); w.SyncedSize() != want || w.Size() != want {
		t.Fatalf("size %d, synced %d after the last Sync, want %d", w.Size(), w.SyncedSize(), want)
	}
}
