package wal

import (
	"fmt"
	"testing"

	"github.com/bolt-lsm/bolt/internal/batch"
	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

func TestWriteReplay(t *testing.T) {
	osfs, err := vfs.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, fs := range map[string]vfs.FS{"mem": vfs.NewMem(), "os": osfs} {
		t.Run(name, func(t *testing.T) { testWriteReplay(t, fs) })
	}
}

func testWriteReplay(t *testing.T, fs vfs.FS) {
	w, err := NewWriter(fs, "000001.log")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b := batch.New()
		b.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
		b.SetSeq(keys.Seq(i*10 + 1))
		if err := w.AddRecord(b.Repr()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	var got []string
	maxSeq, err := Replay(fs, "000001.log", func(b *batch.Batch) error {
		return b.Iterate(func(seq keys.Seq, kind keys.Kind, key, value []byte) error {
			got = append(got, fmt.Sprintf("%d:%s=%s", seq, key, value))
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("replayed %d ops", len(got))
	}
	if got[0] != "1:k0=v0" || got[9] != "91:k9=v9" {
		t.Fatalf("ops = %v", got)
	}
	if maxSeq != 91 {
		t.Fatalf("maxSeq = %d", maxSeq)
	}
}

func TestReplayTornTailAfterCrash(t *testing.T) {
	fs := vfs.NewMem()
	w, _ := NewWriter(fs, "log")
	b := batch.New()
	b.Put([]byte("durable"), []byte("1"))
	b.SetSeq(1)
	w.AddRecord(b.Repr())
	w.Sync()
	fs.SyncDir()

	// A second record is appended but never synced.
	b2 := batch.New()
	b2.Put([]byte("volatile"), []byte("2"))
	b2.SetSeq(2)
	w.AddRecord(b2.Repr())

	crashed := fs.CrashClone()
	var seen []string
	maxSeq, err := Replay(crashed, "log", func(b *batch.Batch) error {
		return b.Iterate(func(_ keys.Seq, _ keys.Kind, key, _ []byte) error {
			seen = append(seen, string(key))
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != "durable" {
		t.Fatalf("seen = %v", seen)
	}
	if maxSeq != 1 {
		t.Fatalf("maxSeq = %d", maxSeq)
	}
}

func TestReplayEmptyLog(t *testing.T) {
	fs := vfs.NewMem()
	w, _ := NewWriter(fs, "log")
	w.Close()
	n := 0
	maxSeq, err := Replay(fs, "log", func(*batch.Batch) error { n++; return nil })
	if err != nil || n != 0 || maxSeq != 0 {
		t.Fatalf("n=%d maxSeq=%d err=%v", n, maxSeq, err)
	}
}

func TestReplayMissingFile(t *testing.T) {
	fs := vfs.NewMem()
	if _, err := Replay(fs, "nope", func(*batch.Batch) error { return nil }); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestGroupCommitRecord(t *testing.T) {
	// Group commit concatenates batches; replay must see all operations
	// with consecutive sequence numbers.
	fs := vfs.NewMem()
	w, _ := NewWriter(fs, "log")
	group := batch.New()
	for i := 0; i < 5; i++ {
		b := batch.New()
		b.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
		group.Append(b)
	}
	group.SetSeq(100)
	w.AddRecord(group.Repr())
	w.Sync()
	w.Close()

	var seqs []keys.Seq
	_, err := Replay(fs, "log", func(b *batch.Batch) error {
		return b.Iterate(func(seq keys.Seq, _ keys.Kind, _, _ []byte) error {
			seqs = append(seqs, seq)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []keys.Seq{100, 101, 102, 103, 104}
	if fmt.Sprint(seqs) != fmt.Sprint(want) {
		t.Fatalf("seqs = %v", seqs)
	}
}

// loadRecord is the WAL record of one YCSB load insert: a batch holding
// one Put of a 23-byte key and a 256-byte value (292 bytes, 299 with the
// fragment header).
func loadRecord() []byte {
	b := batch.New()
	b.Put([]byte("user6284781860667377211"), make([]byte, 256))
	b.SetSeq(1)
	return b.Repr()
}

// BenchmarkAppendOS appends load's record shape to WALs on the OS
// filesystem, starting a new log every 4 MiB as the engine's 4 MiB
// memtable does, so the per-record figure carries the create, close and
// remove of each log. On Linux the log is a mapped append file.
func BenchmarkAppendOS(b *testing.B) {
	fs, err := vfs.NewOS(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	rec := loadRecord()
	const rotateBytes = 4 << 20
	var w *Writer
	var logged int
	rotate := func() {
		if w != nil {
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			if err := fs.Remove("000001.log"); err != nil {
				b.Fatal(err)
			}
		}
		if w, err = NewWriter(fs, "000001.log"); err != nil {
			b.Fatal(err)
		}
		logged = 0
	}
	rotate()
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if logged >= rotateBytes {
			rotate()
		}
		if err := w.AddRecord(rec); err != nil {
			b.Fatal(err)
		}
		logged += len(rec)
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}
