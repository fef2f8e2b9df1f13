package core

import (
	"errors"
	"fmt"
	"testing"

	"github.com/bolt-lsm/bolt/internal/vfs"
)

// TestGetProbesFilterOnce holds the point read to one filter probe per
// consulted table: consult asks the filter, and a table it excludes counts
// one bloom skip and reads no block, while a table it admits is read
// without asking again (sstable's TestGetUnfilteredSkipsFilter shows the
// read path consult takes does not consult the filter).
func TestGetProbesFilterOnce(t *testing.T) {
	db := openTestDB(t, vfs.NewMem(), testConfig())
	defer db.Close()
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%04d", 2*i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	v := db.vs.Current()
	v.Ref()
	db.mu.Unlock()
	defer v.Unref()
	if v.NumFiles() == 0 {
		t.Fatal("nothing reached the tables")
	}

	// An absent key inside a table's range whose filter excludes it.
	var absent []byte
	for i := 0; i < 200 && absent == nil; i++ {
		key := []byte(fmt.Sprintf("k%04d", 2*i+1))
		for level := range v.Levels {
			for r := range v.Runs(level) {
				f := v.RunTable(level, r, key)
				if f == nil {
					continue
				}
				h, err := db.tableCache.Acquire(f)
				if err != nil {
					t.Fatal(err)
				}
				if !h.Reader.MayContain(key) {
					absent = key
				}
				h.Release()
			}
		}
	}
	if absent == nil {
		t.Fatal("no absent key the filters exclude")
	}

	type reading struct{ checked, skips, blockLookups int64 }
	read := func() reading {
		hits, misses := db.blockCache.Stats()
		return reading{db.met.TablesChecked.Load(), db.met.BloomSkips.Load(), hits + misses}
	}
	before := read()
	if _, err := db.Get(absent, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(%q) = %v, want ErrNotFound", absent, err)
	}
	after := read()
	if got := (reading{after.checked - before.checked, after.skips - before.skips, after.blockLookups - before.blockLookups}); got != (reading{1, 1, 0}) {
		t.Fatalf("excluded key: %d tables checked, %d bloom skips, %d block lookups; want 1, 1, 0", got.checked, got.skips, got.blockLookups)
	}

	before = read()
	if val, err := db.Get([]byte("k0100"), nil); err != nil || string(val) != "v" {
		t.Fatalf("Get(k0100) = %q, %v", val, err)
	}
	after = read()
	if got := (reading{after.checked - before.checked, after.skips - before.skips, after.blockLookups - before.blockLookups}); got != (reading{1, 0, 1}) {
		t.Fatalf("present key: %d tables checked, %d bloom skips, %d block lookups; want 1, 0, 1", got.checked, got.skips, got.blockLookups)
	}
}
