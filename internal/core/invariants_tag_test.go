//go:build boltinvariants

package core

import (
	"fmt"
	"testing"

	"github.com/bolt-lsm/bolt/internal/vfs"
)

// TestInvariantsEndToEnd runs a full write/flush/compact/reopen cycle with
// the sync tracker wired under the engine (boltinvariants build). The test
// has no explicit assertions about barriers: if any engine path paid the
// MANIFEST barrier before the data barrier, the checker panics and the
// test fails with the violating file:byte-count in the message.
func TestInvariantsEndToEnd(t *testing.T) {
	if !InvariantsEnabled {
		t.Fatal("tagged build must set InvariantsEnabled")
	}
	fs := vfs.NewMem()
	db := openTestDB(t, fs, boltTestConfig())

	val := make([]byte, 256)
	for i := 0; i < 2000; i++ {
		key := []byte(fmt.Sprintf("key-%05d", i%500))
		if err := db.Put(key, val); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			if err := db.Delete(key); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: recovery rewrites the MANIFEST under the tracker too.
	db = openTestDB(t, fs, boltTestConfig())
	got, err := db.Get([]byte("key-00001"), nil)
	if err != nil || len(got) != len(val) {
		t.Fatalf("Get after reopen = %d bytes, %v", len(got), err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantsEndToEndValueLog runs the value log's barrier paths under
// the checker: rotations whose retired segments the flushes sync and
// record, value GC, CompactValueLog, Close and a reopen. A flush that
// recorded a segment past its synced length would panic at its MANIFEST
// sync.
func TestInvariantsEndToEndValueLog(t *testing.T) {
	fs := vfs.NewMem()
	db := openTestDB(t, fs, vlogTestConfig())
	putGenerations(t, db, "key", 3, 40)
	if err := db.CompactValueLog(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openTestDB(t, fs, vlogTestConfig())
	defer db.Close()
	putGenerations(t, db, "key", 1, 40)
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key%03d", i)
		if got, err := db.Get([]byte(key), nil); err != nil || len(got) != len(bigValue(key, 0)) {
			t.Fatalf("Get(%s) after reopen = %d bytes, %v", key, len(got), err)
		}
	}
}
