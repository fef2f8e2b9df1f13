package block

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/bolt-lsm/bolt/internal/keys"
)

func ik(u string, seq uint64) keys.InternalKey {
	return keys.MakeInternalKey(nil, []byte(u), keys.Seq(seq), keys.KindSet)
}

func buildBlock(t testing.TB, pairs [][2]string, restartInterval, padding int) *Reader {
	t.Helper()
	b := NewBuilder(restartInterval, padding)
	for _, p := range pairs {
		b.Add(ik(p[0], 1), []byte(p[1]))
	}
	r, err := NewReader(b.Finish())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func sortedPairs(n int) [][2]string {
	pairs := make([][2]string, n)
	for i := 0; i < n; i++ {
		pairs[i] = [2]string{fmt.Sprintf("key%06d", i), fmt.Sprintf("value-%d", i)}
	}
	return pairs
}

func TestRoundTrip(t *testing.T) {
	for _, pad := range []int{0, 7} {
		for _, ri := range []int{1, 2, 16} {
			t.Run(fmt.Sprintf("ri=%d/pad=%d", ri, pad), func(t *testing.T) {
				pairs := sortedPairs(100)
				r := buildBlock(t, pairs, ri, pad)
				it := r.Iter()
				i := 0
				for ok := it.First(); ok; ok = it.Next() {
					if string(it.Key().UserKey()) != pairs[i][0] {
						t.Fatalf("entry %d key = %q, want %q", i, it.Key().UserKey(), pairs[i][0])
					}
					if string(it.Value()) != pairs[i][1] {
						t.Fatalf("entry %d value = %q, want %q", i, it.Value(), pairs[i][1])
					}
					i++
				}
				if err := it.Err(); err != nil {
					t.Fatal(err)
				}
				if i != len(pairs) {
					t.Fatalf("iterated %d entries, want %d", i, len(pairs))
				}
			})
		}
	}
}

func TestSeek(t *testing.T) {
	pairs := sortedPairs(200)
	r := buildBlock(t, pairs, 8, 0)
	it := r.Iter()

	// Exact seek to every key.
	for i, p := range pairs {
		if !it.Seek(ik(p[0], 1)) {
			t.Fatalf("Seek(%q) failed", p[0])
		}
		if string(it.Key().UserKey()) != p[0] {
			t.Fatalf("Seek(%q) landed on %q (i=%d)", p[0], it.Key().UserKey(), i)
		}
	}
	// Seek between keys lands on the next one.
	if !it.Seek(ik("key000010x", 1)) || string(it.Key().UserKey()) != "key000011" {
		t.Fatalf("between-seek landed on %q", it.Key().UserKey())
	}
	// Seek before the first key lands on the first.
	if !it.Seek(ik("a", 1)) || string(it.Key().UserKey()) != "key000000" {
		t.Fatalf("before-seek landed on %q", it.Key().UserKey())
	}
	// Seek past the end invalidates.
	if it.Seek(ik("z", 1)) {
		t.Fatalf("past-end seek should invalidate, got %q", it.Key().UserKey())
	}
}

func TestSeekHonorsSequenceOrdering(t *testing.T) {
	// Two versions of the same user key: newer (higher seq) sorts first.
	b := NewBuilder(16, 0)
	b.Add(ik("k", 9), []byte("new"))
	b.Add(ik("k", 3), []byte("old"))
	r, err := NewReader(b.Finish())
	if err != nil {
		t.Fatal(err)
	}
	it := r.Iter()
	// Seeking at seq 100 (greater than both) must land on the newest entry.
	if !it.Seek(keys.MakeInternalKey(nil, []byte("k"), 100, keys.KindSeekMax)) {
		t.Fatal("seek failed")
	}
	if string(it.Value()) != "new" {
		t.Fatalf("seek landed on %q", it.Value())
	}
	// Seeking at seq 5 must skip the seq-9 entry.
	if !it.Seek(keys.MakeInternalKey(nil, []byte("k"), 5, keys.KindSeekMax)) {
		t.Fatal("seek failed")
	}
	if string(it.Value()) != "old" {
		t.Fatalf("snapshot seek landed on %q", it.Value())
	}
}

func TestEmptyBlock(t *testing.T) {
	b := NewBuilder(16, 0)
	r, err := NewReader(b.Finish())
	if err != nil {
		t.Fatal(err)
	}
	it := r.Iter()
	if it.First() {
		t.Error("empty block First should be invalid")
	}
	if it.Seek(ik("x", 1)) {
		t.Error("empty block Seek should be invalid")
	}
}

func TestBuilderReset(t *testing.T) {
	b := NewBuilder(4, 0)
	b.Add(ik("a", 1), []byte("1"))
	b.Finish()
	b.Reset()
	if !b.Empty() {
		t.Fatal("builder not empty after Reset")
	}
	b.Add(ik("b", 1), []byte("2"))
	r, err := NewReader(b.Finish())
	if err != nil {
		t.Fatal(err)
	}
	it := r.Iter()
	if !it.First() || string(it.Key().UserKey()) != "b" {
		t.Fatal("reused builder produced wrong block")
	}
	if it.Next() {
		t.Fatal("reused builder leaked old entries")
	}
}

func TestCorruptBlockRejected(t *testing.T) {
	if _, err := NewReader(nil); err == nil {
		t.Error("nil block accepted")
	}
	if _, err := NewReader([]byte{1, 2, 3}); err == nil {
		t.Error("short block accepted")
	}
	// A block whose restart count points outside the data.
	bad := []byte{0, 0, 0, 0, 0xff, 0xff, 0, 0}
	if _, err := NewReader(bad); err == nil {
		t.Error("bad restart count accepted")
	}
}

func TestEstimatedSizeGrows(t *testing.T) {
	b := NewBuilder(16, 0)
	prev := b.EstimatedSize()
	for i := 0; i < 50; i++ {
		b.Add(ik(fmt.Sprintf("key%04d", i), 1), bytes.Repeat([]byte("v"), 20))
		if sz := b.EstimatedSize(); sz <= prev {
			t.Fatalf("estimated size did not grow at entry %d", i)
		} else {
			prev = sz
		}
	}
	if got := len(b.Finish()); got != prev {
		t.Fatalf("Finish len %d != final estimate %d", got, prev)
	}
}

func TestPaddingIncreasesSizeOnly(t *testing.T) {
	pairs := sortedPairs(64)
	plain := NewBuilder(16, 0)
	padded := NewBuilder(16, 50)
	for _, p := range pairs {
		plain.Add(ik(p[0], 1), []byte(p[1]))
		padded.Add(ik(p[0], 1), []byte(p[1]))
	}
	pb, qb := plain.Finish(), padded.Finish()
	if len(qb) < len(pb)+64*50 {
		t.Fatalf("padding not applied: %d vs %d", len(qb), len(pb))
	}
	r, err := NewReader(qb)
	if err != nil {
		t.Fatal(err)
	}
	it := r.Iter()
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		if string(it.Value()) != pairs[n][1] {
			t.Fatalf("padded value %d = %q", n, it.Value())
		}
		n++
	}
	if n != len(pairs) || it.Err() != nil {
		t.Fatalf("padded block iteration: n=%d err=%v", n, it.Err())
	}
}

// TestPadEncoding: an entry's pad is padLen zero bytes after the value, for
// pads shorter than, equal to and longer than the builder's chunk of zeros.
func TestPadEncoding(t *testing.T) {
	key, value := ik("k", 1), []byte("v")
	for _, pad := range []int{0, 1, 88, len(zeroPad), len(zeroPad) + 1, 3*len(zeroPad) + 5} {
		b := NewBuilder(16, pad)
		b.Add(key, value)
		want := binary.AppendUvarint(nil, 0)
		want = binary.AppendUvarint(want, uint64(len(key)))
		want = binary.AppendUvarint(want, uint64(len(value)))
		want = binary.AppendUvarint(want, uint64(pad))
		want = append(append(want, key...), value...)
		want = append(want, make([]byte, pad)...)
		want = binary.LittleEndian.AppendUint32(want, 0)
		want = binary.LittleEndian.AppendUint32(want, 1)
		if got := b.Finish(); !bytes.Equal(got, want) {
			t.Fatalf("pad %d: block = %x, want %x", pad, got, want)
		}
	}
}

// Property: building a block from any sorted unique key set and reading it
// back yields the same pairs, for random restart intervals.
func TestRoundTripProperty(t *testing.T) {
	f := func(rawKeys [][]byte, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		uniq := map[string][]byte{}
		for _, k := range rawKeys {
			v := make([]byte, rng.Intn(64))
			rng.Read(v)
			uniq[string(k)] = v
		}
		var sorted []string
		for k := range uniq {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)

		b := NewBuilder(1+rng.Intn(20), rng.Intn(4))
		for _, k := range sorted {
			b.Add(ik(k, 7), uniq[k])
		}
		r, err := NewReader(b.Finish())
		if err != nil {
			return false
		}
		it := r.Iter()
		i := 0
		for ok := it.First(); ok; ok = it.Next() {
			if string(it.Key().UserKey()) != sorted[i] || !bytes.Equal(it.Value(), uniq[sorted[i]]) {
				return false
			}
			i++
		}
		return it.Err() == nil && i == len(sorted)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBlockSeek seeks one reused iterator within a 256-entry block.
// Restart keys are compared in place and the scanned keys are rebuilt in
// the iterator's buffer, so a seek allocates nothing (the CI alloc guard
// holds it there).
func BenchmarkBlockSeek(b *testing.B) {
	pairs := sortedPairs(256)
	r := buildBlock(b, pairs, 16, 0)
	it := r.Iter()
	targets := make([]keys.InternalKey, len(pairs))
	for i, p := range pairs {
		targets[i] = ik(p[0], 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Seek(targets[i%len(targets)])
	}
}

// BenchmarkBlockBuild builds blocks of the benchmark's record shape (23-byte
// keys, 256-byte values, the EntryPadding of 88) up to the 4 KiB block size;
// ns/op is per entry. BenchmarkTableBuild pads nothing, so the pad's cost
// shows only here.
func BenchmarkBlockBuild(b *testing.B) {
	const entries = 256
	ikeys := make([]keys.InternalKey, entries)
	for i := range ikeys {
		ikeys[i] = ik(fmt.Sprintf("user%019d", i), 1)
	}
	value := make([]byte, 256)
	bld := NewBuilder(0, 88)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bld.EstimatedSize() >= 4096 {
			bld.Finish()
			bld.Reset()
		}
		bld.Add(ikeys[i%entries], value)
	}
}

// BenchmarkBlockNext walks blocks of the benchmark's record shape (23-byte
// keys, 256-byte values, 88 bytes of entry padding): the value length is
// the only header field that needs a second varint byte.
func BenchmarkBlockNext(b *testing.B) {
	bld := NewBuilder(0, 88)
	value := make([]byte, 256)
	entries := 0
	for ; bld.EstimatedSize() < 4096; entries++ {
		bld.Add(ik(fmt.Sprintf("user%019d", entries), 1), value)
	}
	r, err := NewReader(bld.Finish())
	if err != nil {
		b.Fatal(err)
	}
	it := r.Iter()
	b.ResetTimer()
	for done := 0; done < b.N; done += entries {
		for ok := it.First(); ok; ok = it.Next() {
		}
	}
}
