package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// evictLog records onEvict calls as "key=value".
type evictLog []string

func (l *evictLog) onEvict(k string, v int) { *l = append(*l, fmt.Sprintf("%s=%d", k, v)) }

func (l *evictLog) String() string { return fmt.Sprint([]string(*l)) }

// TestCLOCKSecondChance: a hit entry survives the next sweep that reaches
// it, which clears its bit, and is evicted by the sweep after if nothing
// touches it in between; a second hit buys it another pass.
func TestCLOCKSecondChance(t *testing.T) {
	for _, tc := range []struct {
		name       string
		touchTwice bool
		want       string
	}{
		{"untouched after the sweep", false, "[b=2 a=1]"},
		{"touched again", true, "[b=2 c=3]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log evictLog
			c := newLRU[string, int](2, log.onEvict)
			c.insert("a", 1, 1)
			c.insert("b", 2, 1)
			c.get("a")
			c.insert("c", 3, 1) // the sweep clears a's bit and evicts b
			if _, ok := c.get("b"); ok {
				t.Fatal("b survived the first sweep")
			}
			if tc.touchTwice {
				c.get("a")
			}
			c.insert("d", 4, 1)
			if got := log.String(); got != tc.want {
				t.Fatalf("evicted %s, want %s", got, tc.want)
			}
			if c.len() != 2 || c.usedCharge() != 2 {
				t.Fatalf("len=%d used=%d, want 2 and 2", c.len(), c.usedCharge())
			}
		})
	}
}

// ringAtSlot1 returns a full 3-entry ring [d b c] whose hand rests on
// slot 1 (b): inserting d swept a out of slot 0 and took its place.
func ringAtSlot1(t *testing.T, log *evictLog) *lru[string, int] {
	t.Helper()
	c := newLRU[string, int](3, log.onEvict)
	for i, k := range []string{"a", "b", "c", "d"} {
		c.insert(k, i+1, 1)
	}
	if got := log.String(); got != "[a=1]" || c.hand != 1 || c.slots[0].key != "d" {
		t.Fatalf("setup: evicted %s, hand %d, slot 0 %q", got, c.hand, c.slots[0].key)
	}
	return c
}

// TestCLOCKRemoveUnderHand: removing the entry the hand rests on leaves a
// vacant slot the next sweep passes over.
func TestCLOCKRemoveUnderHand(t *testing.T) {
	var log evictLog
	c := ringAtSlot1(t, &log)
	c.remove("b")
	c.insert("e", 5, 2) // needs 2: passes vacant slot 1, evicts c
	if got := log.String(); got != "[a=1 b=2 c=3]" {
		t.Fatalf("evicted %s, want [a=1 b=2 c=3]", got)
	}
	for _, k := range []string{"d", "e"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s not resident", k)
		}
	}
	if c.len() != 2 || c.usedCharge() != 3 {
		t.Fatalf("len=%d used=%d, want 2 and 3", c.len(), c.usedCharge())
	}
}

// TestCLOCKReplaceUnderHand: replacing the entry the hand rests on evicts
// the displaced value once and keeps the key's recency, so the next sweep
// passes it over once and evicts the entry after it.
func TestCLOCKReplaceUnderHand(t *testing.T) {
	var log evictLog
	c := ringAtSlot1(t, &log)
	c.insert("b", 20, 1)
	if got := log.String(); got != "[a=1 b=2]" {
		t.Fatalf("replacement evicted %s, want [a=1 b=2]", got)
	}
	c.insert("f", 6, 1)
	if got := log.String(); got != "[a=1 b=2 c=3]" {
		t.Fatalf("evicted %s, want [a=1 b=2 c=3]", got)
	}
	if v, ok := c.get("b"); !ok || v != 20 {
		t.Fatalf("b = %d, %v; want the replacement resident", v, ok)
	}
}

// TestCLOCKClearMidRing: clear with the hand mid-ring and a vacant slot
// in it evicts every resident entry exactly once and no vacant slot, and
// leaves an empty, closed cache.
func TestCLOCKClearMidRing(t *testing.T) {
	var log evictLog
	c := ringAtSlot1(t, &log)
	c.remove("c")
	log = nil
	c.clear()
	if got := log.String(); got != "[d=4 b=2]" {
		t.Fatalf("clear evicted %s, want [d=4 b=2]", got)
	}
	if c.len() != 0 || c.usedCharge() != 0 || c.hand != 0 || len(c.slots) != 0 {
		t.Fatalf("after clear: len=%d used=%d hand=%d slots=%d", c.len(), c.usedCharge(), c.hand, len(c.slots))
	}
	c.insert("g", 7, 1)
	if got := log.String(); got != "[d=4 b=2 g=7]" || c.len() != 0 {
		t.Fatalf("insert after clear: evicted %s, len %d", got, c.len())
	}
}

// closeCountFile counts its closes.
type closeCountFile struct {
	vfs.File
	closes atomic.Int32
}

func (f *closeCountFile) Close() error {
	f.closes.Add(1)
	return f.File.Close()
}

// TestFDEntryTryAcquireRacesLastRelease races tryAcquire against the
// release of an entry's last reference: every tryAcquire that succeeds
// must hold an open file until it releases, and the file must close
// exactly once, after the last reference is gone. Run it under -race with
// a -count of 20 or so to shake the interleavings.
func TestFDEntryTryAcquireRacesLastRelease(t *testing.T) {
	fs := vfs.NewMem()
	buildTableFile(t, fs, 1, 5)
	const rounds, acquirers = 300, 4
	for round := 0; round < rounds; round++ {
		f, err := fs.Open(manifest.TableFileName(1))
		if err != nil {
			t.Fatal(err)
		}
		cf := &closeCountFile{File: f}
		e := newFDEntry(cf)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < acquirers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 8; i++ {
					if !e.tryAcquire() {
						return
					}
					if n := cf.closes.Load(); n != 0 {
						t.Errorf("round %d: tryAcquire succeeded on a file closed %d times", round, n)
					}
					e.release()
				}
			}()
		}
		close(start)
		e.release() // the creator's reference, racing the acquirers
		wg.Wait()
		if n := cf.closes.Load(); n != 1 {
			t.Fatalf("round %d: file closed %d times, want once", round, n)
		}
		if e.tryAcquire() {
			t.Fatalf("round %d: tryAcquire revived a closed entry", round)
		}
	}
}
