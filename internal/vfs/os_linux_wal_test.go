//go:build linux

package vfs_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/bolt-lsm/bolt/internal/batch"
	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/vfs"
	"github.com/bolt-lsm/bolt/internal/wal"
)

// TestUnclosedMappedLogReplays copies a mapped WAL aside while it is still
// open — what a killed process leaves: the records, then the zero rest of
// the preallocated window — and replays the copy.
func TestUnclosedMappedLogReplays(t *testing.T) {
	live, err := vfs.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := wal.NewWriter(live, "000001.log")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	value := make([]byte, 256)
	const n = 10_000 // about 3 MiB: three window crossings
	for i := range n {
		b := batch.New()
		b.Put([]byte{byte(i >> 8), byte(i)}, value)
		b.SetSeq(keys.Seq(i + 1))
		if err := w.AddRecord(b.Repr()); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(live.Root(), "000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data)%(1<<20) != 0 || data[len(data)-1] != 0 {
		t.Fatalf("the open log is %d bytes, want whole windows with a zero tail", len(data))
	}
	aside, err := vfs.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(aside.Root(), "000001.log"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var seen int
	maxSeq, err := wal.Replay(aside, "000001.log", func(b *batch.Batch) error {
		if b.Seq() != keys.Seq(seen+1) {
			t.Fatalf("record %d carries seq %d", seen, b.Seq())
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != n || maxSeq != n {
		t.Fatalf("replayed %d records up to seq %d, want %d", seen, maxSeq, n)
	}
}
