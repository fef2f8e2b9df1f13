package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/ycsb"
)

func TestAddGet(t *testing.T) {
	m := New()
	m.Add(1, keys.KindSet, []byte("a"), []byte("v1"))
	m.Add(2, keys.KindSet, []byte("b"), []byte("v2"))
	m.Add(3, keys.KindDelete, []byte("a"), nil)

	v, kind, found := m.Get([]byte("b"), keys.MaxSeq)
	if !found || kind != keys.KindSet || string(v) != "v2" {
		t.Fatalf("Get(b) = %q %v %v", v, kind, found)
	}
	// At seq >= 3, "a" is deleted.
	_, kind, found = m.Get([]byte("a"), keys.MaxSeq)
	if !found || kind != keys.KindDelete {
		t.Fatalf("Get(a) should see tombstone, got kind=%v found=%v", kind, found)
	}
	// At seq 2, the original value is visible.
	v, kind, found = m.Get([]byte("a"), 2)
	if !found || kind != keys.KindSet || string(v) != "v1" {
		t.Fatalf("Get(a,2) = %q %v %v", v, kind, found)
	}
	// Unknown key.
	if _, _, found := m.Get([]byte("zz"), keys.MaxSeq); found {
		t.Fatal("phantom key")
	}
}

func TestIterSortedAndComplete(t *testing.T) {
	m := New()
	const n = 1000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for i, p := range perm {
		m.Add(keys.Seq(i+1), keys.KindSet, []byte(fmt.Sprintf("key%05d", p)), []byte(fmt.Sprintf("v%d", p)))
	}
	if m.Count() != n {
		t.Fatalf("Count = %d", m.Count())
	}
	it := m.NewIter()
	defer it.Close()
	var prev keys.InternalKey
	count := 0
	for ok := it.First(); ok; ok = it.Next() {
		if prev != nil && keys.Compare(prev, it.Key()) >= 0 {
			t.Fatalf("out of order at %d: %v >= %v", count, prev, it.Key())
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if count != n {
		t.Fatalf("iterated %d, want %d", count, n)
	}
}

func TestIterSeek(t *testing.T) {
	m := New()
	for i := 0; i < 100; i++ {
		m.Add(keys.Seq(i+1), keys.KindSet, []byte(fmt.Sprintf("k%03d", i*2)), nil)
	}
	it := m.NewIter()
	defer it.Close()
	// Seek to a present key.
	if !it.Seek(keys.MakeInternalKey(nil, []byte("k010"), keys.MaxSeq, keys.KindSeekMax)) {
		t.Fatal("seek failed")
	}
	if string(it.Key().UserKey()) != "k010" {
		t.Fatalf("landed on %q", it.Key().UserKey())
	}
	// Seek between keys.
	if !it.Seek(keys.MakeInternalKey(nil, []byte("k011"), keys.MaxSeq, keys.KindSeekMax)) {
		t.Fatal("seek failed")
	}
	if string(it.Key().UserKey()) != "k012" {
		t.Fatalf("landed on %q", it.Key().UserKey())
	}
}

func TestMultipleVersionsNewestFirst(t *testing.T) {
	m := New()
	for seq := 1; seq <= 10; seq++ {
		m.Add(keys.Seq(seq), keys.KindSet, []byte("k"), []byte(fmt.Sprintf("v%d", seq)))
	}
	v, _, found := m.Get([]byte("k"), keys.MaxSeq)
	if !found || string(v) != "v10" {
		t.Fatalf("latest = %q", v)
	}
	for seq := 1; seq <= 10; seq++ {
		v, _, found := m.Get([]byte("k"), keys.Seq(seq))
		if !found || string(v) != fmt.Sprintf("v%d", seq) {
			t.Fatalf("at seq %d got %q", seq, v)
		}
	}
}

func TestConcurrentInsertersAllVisible(t *testing.T) {
	m := New()
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq := keys.Seq(w*perWriter + i + 1)
				key := fmt.Sprintf("w%d-k%06d", w, i)
				m.Add(seq, keys.KindSet, []byte(key), []byte(key))
			}
		}(w)
	}
	wg.Wait()
	if m.Count() != writers*perWriter {
		t.Fatalf("Count = %d, want %d", m.Count(), writers*perWriter)
	}
	// Every key must be found with its value.
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i += 97 {
			key := fmt.Sprintf("w%d-k%06d", w, i)
			v, _, found := m.Get([]byte(key), keys.MaxSeq)
			if !found || string(v) != key {
				t.Fatalf("lost key %s (found=%v v=%q)", key, found, v)
			}
		}
	}
	// Iteration must be sorted and complete.
	it := m.NewIter()
	defer it.Close()
	count := 0
	var prev keys.InternalKey
	for ok := it.First(); ok; ok = it.Next() {
		if prev != nil && keys.Compare(prev, it.Key()) >= 0 {
			t.Fatal("concurrent inserts broke ordering")
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if count != writers*perWriter {
		t.Fatalf("iterated %d, want %d", count, writers*perWriter)
	}
}

func TestConcurrentReadDuringWrite(t *testing.T) {
	m := New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			m.Add(keys.Seq(i+1), keys.KindSet, []byte(fmt.Sprintf("k%06d", i)), []byte("v"))
		}
	}()
	// Readers run concurrently; they must never see corruption (panics or
	// unordered iteration).
	for {
		select {
		case <-done:
			return
		default:
		}
		it := m.NewIter()
		var prev keys.InternalKey
		for ok := it.First(); ok; ok = it.Next() {
			if prev != nil && keys.Compare(prev, it.Key()) >= 0 {
				t.Fatal("reader observed unordered state")
			}
			prev = append(prev[:0], it.Key()...)
		}
		it.Close()
	}
}

// ApproximateSize is exactly the sum of len(ikey)+len(value)+48 over the
// entries, whatever the arena layout. The engine flushes when it crosses
// MemTableBytes, so this formula fixes the flush points that FIGURES.json
// records.
func TestApproximateSizeGrows(t *testing.T) {
	m := New()
	if m.ApproximateSize() != 0 {
		t.Fatal("empty memtable has nonzero size")
	}
	rng := rand.New(rand.NewSource(1))
	var want int64
	for i := 0; i < 5000; i++ {
		key := []byte(fmt.Sprintf("key%d", rng.Intn(1000)))
		value := make([]byte, rng.Intn(600))
		if i%997 == 0 {
			value = make([]byte, byteChunkMax+i)
		}
		m.Add(keys.Seq(i+1), keys.KindSet, key, value)
		want += int64(len(key) + keys.TrailerLen + len(value) + 48)
		if got := m.ApproximateSize(); got != want {
			t.Fatalf("after %d adds: ApproximateSize = %d, want %d", i+1, got, want)
		}
	}
}

// Property: memtable contents equal a sorted reference model, and Get
// finds every key's newest value. The fixed inputs are keys whose
// zero-padded eight-byte prefixes tie or differ only in the padding, the
// cases where a search step must fall back from the prefix to the bytes.
func TestMatchesReferenceModel(t *testing.T) {
	f := func(ops [][2]string, seed int64) bool {
		m := New()
		type entry struct {
			ikey keys.InternalKey
			v    string
		}
		var ref []entry
		newest := map[string]string{}
		for i, op := range ops {
			seq := keys.Seq(i + 1)
			m.Add(seq, keys.KindSet, []byte(op[0]), []byte(op[1]))
			ref = append(ref, entry{keys.MakeInternalKey(nil, []byte(op[0]), seq, keys.KindSet), op[1]})
			newest[op[0]] = op[1]
		}
		for k, want := range newest {
			if v, _, found := m.Get([]byte(k), keys.MaxSeq); !found || string(v) != want {
				return false
			}
		}
		sort.Slice(ref, func(a, b int) bool { return keys.Compare(ref[a].ikey, ref[b].ikey) < 0 })
		it := m.NewIter()
		defer it.Close()
		i := 0
		for ok := it.First(); ok; ok = it.Next() {
			if i >= len(ref) || keys.Compare(it.Key(), ref[i].ikey) != 0 || string(it.Value()) != ref[i].v {
				return false
			}
			i++
		}
		return i == len(ref)
	}
	var edges [][2]string
	for i, k := range []string{"", "\x00", "a", "a\x00", "a\x00\x00", "a\x00\x01", "a\x01", "ab",
		"abcdefg", "abcdefgh", "abcdefgh\x00", "abcdefgha", "abcdefghb", "abcdefgi", "abcdefh", "\xff\xff\xff\xff\xff\xff\xff\xff\xff"} {
		edges = append(edges, [2]string{k, fmt.Sprint(i)}, [2]string{k, fmt.Sprint(-i)})
	}
	rand.New(rand.NewSource(3)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	if !f(edges, 0) {
		t.Fatal("prefix edge cases: contents or Get differ from the reference")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// chunkTestValue is the value writer w stores under its i-th key: every
// 50th is empty, one per writer is larger than a regular kv chunk, and the
// rest run up to 300 bytes. Every byte is the same, so a reader can check
// a value of any length against (w, i).
func chunkTestValue(w, i int) []byte {
	n := (i * 7) % 300
	switch {
	case i%50 == 0:
		n = 0
	case i == 1001:
		n = byteChunkMax + 1 + w
	}
	return bytes.Repeat([]byte{byte(w*31 + i)}, n)
}

func checkChunkTestValue(w, i int, got []byte) error {
	want := chunkTestValue(w, i)
	if len(want) == 0 {
		if got != nil {
			return fmt.Errorf("w%d k%d: empty value came back as %d-byte non-nil slice", w, i, len(got))
		}
		return nil
	}
	if cap(got) != len(got) {
		return fmt.Errorf("w%d k%d: value cap %d != len %d", w, i, cap(got), len(got))
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("w%d k%d: value of %d bytes, want %d bytes of %#x", w, i, len(got), len(want), want[0])
	}
	return nil
}

// Eight inserters race readers that iterate and Get across many node and
// kv chunk boundaries, oversized kv chunks included: every iteration is
// sorted and every entry a writer has published is found with its value.
func TestConcurrentInsertReadAcrossChunks(t *testing.T) {
	const writers = 8
	const perWriter = 3000
	m := New()
	var published [writers]atomic.Int64
	var writersDone atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				m.Add(keys.Seq(w*perWriter+i+1), keys.KindSet, []byte(fmt.Sprintf("k%05d-w%d", i, w)), chunkTestValue(w, i))
				published[w].Store(int64(i + 1))
			}
		}(w)
	}
	errs := make(chan error, 2)
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !writersDone.Load() {
				it := m.NewIter()
				var prev keys.InternalKey
				for ok := it.First(); ok; ok = it.Next() {
					if prev != nil && keys.Compare(prev, it.Key()) >= 0 {
						errs <- fmt.Errorf("reader %d: %q after %q", r, it.Key(), prev)
						return
					}
					prev = append(prev[:0], it.Key()...)
				}
				it.Close()
				for j := 0; j < 50; j++ {
					w := rng.Intn(writers)
					n := published[w].Load()
					if n == 0 {
						continue
					}
					i := rng.Intn(int(n))
					v, _, found := m.Get([]byte(fmt.Sprintf("k%05d-w%d", i, w)), keys.MaxSeq)
					if !found {
						errs <- fmt.Errorf("reader %d: published w%d k%d not found", r, w, i)
						return
					}
					if err := checkChunkTestValue(w, i, v); err != nil {
						errs <- err
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	writersDone.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := len(*m.nodeDir.Load()); got < 5 {
		t.Fatalf("%d node chunks: the test no longer crosses node chunk boundaries", got)
	}
	if got := len(*m.ikeys.dir.Load()); got < 5 {
		t.Fatalf("%d key chunks: the test no longer crosses key chunk boundaries", got)
	}
	regular, oversized := 0, 0
	for _, c := range *m.values.dir.Load() {
		if len(c) > byteChunkMax {
			oversized++
		} else {
			regular++
		}
	}
	if regular < 8 || oversized != writers {
		t.Fatalf("%d regular and %d oversized value chunks: the test no longer crosses value chunk boundaries", regular, oversized)
	}

	it := m.NewIter()
	defer it.Close()
	count := 0
	for ok := it.First(); ok; ok = it.Next() {
		var i, w int
		if _, err := fmt.Sscanf(string(it.Key().UserKey()), "k%05d-w%d", &i, &w); err != nil {
			t.Fatal(err)
		}
		if err := checkChunkTestValue(w, i, it.Value()); err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != writers*perWriter {
		t.Fatalf("iterated %d, want %d", count, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			v, _, found := m.Get([]byte(fmt.Sprintf("k%05d-w%d", i, w)), keys.MaxSeq)
			if !found {
				t.Fatalf("w%d k%d not found", w, i)
			}
			if err := checkChunkTestValue(w, i, v); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Keys and values come back with cap == len, so a caller's append
// reallocates instead of writing over the entry behind them in the arena.
func TestReturnedSlicesAreCapped(t *testing.T) {
	m := New()
	for i := 0; i < 100; i++ {
		m.Add(keys.Seq(i+1), keys.KindSet, []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i)))
	}
	it := m.NewIter()
	defer it.Close()
	for ok := it.First(); ok; ok = it.Next() {
		k, v := it.Key(), it.Value()
		if cap(k) != len(k) || cap(v) != len(v) {
			t.Fatalf("%q: key cap %d len %d, value cap %d len %d", k.UserKey(), cap(k), len(k), cap(v), len(v))
		}
		_ = append(k, 'x')
		_ = append(v, 'x')
	}
	for i := 0; i < 100; i++ {
		v, _, found := m.Get([]byte(fmt.Sprintf("k%03d", i)), keys.MaxSeq)
		if !found || string(v) != fmt.Sprintf("v%03d", i) || cap(v) != len(v) {
			t.Fatalf("k%03d: %q found=%v cap %d", i, v, found, cap(v))
		}
	}
}

// An empty value, nil or not, comes back as nil from Get and the iterator.
func TestEmptyValueIsNil(t *testing.T) {
	m := New()
	m.Add(1, keys.KindSet, []byte("a"), []byte{})
	m.Add(2, keys.KindSet, []byte("b"), nil)
	m.Add(3, keys.KindDelete, []byte("c"), nil)
	for _, k := range []string{"a", "b", "c"} {
		v, _, found := m.Get([]byte(k), keys.MaxSeq)
		if !found || v != nil {
			t.Fatalf("Get(%s) = %#v found=%v, want nil found", k, v, found)
		}
	}
	it := m.NewIter()
	defer it.Close()
	for ok := it.First(); ok; ok = it.Next() {
		if it.Value() != nil {
			t.Fatalf("%q: iterator value %#v, want nil", it.Key().UserKey(), it.Value())
		}
	}
}

// recordShape is the record shape of benchmark/layers.go: one 4 MiB
// memtable of 23-byte YCSB keys and 256-byte values, in seeded random
// order.
func recordShape() (ukeys, values [][]byte) {
	const n = 12_500
	rng := rand.New(rand.NewSource(1))
	for _, i := range rng.Perm(n) {
		ukeys = append(ukeys, ycsb.Key(int64(i)))
		v := make([]byte, 256)
		rng.Read(v)
		values = append(values, v)
	}
	return ukeys, values
}

// BenchmarkAddRecordShape inserts the record shape, starting a new
// memtable (outside the timer) each time one is full. The alloc guard
// holds it at 0 allocs/op: only chunk allocations remain, a few dozen per
// memtable.
func BenchmarkAddRecordShape(b *testing.B) {
	ukeys, values := recordShape()
	var m *MemTable
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ukeys)
		if j == 0 {
			b.StopTimer()
			m = New()
			b.StartTimer()
		}
		m.Add(keys.Seq(j+1), keys.KindSet, ukeys[j], values[j])
	}
}

// BenchmarkGetRecordShape looks the record shape up in one full memtable
// with pre-encoded seek keys, as the engine's read path does.
func BenchmarkGetRecordShape(b *testing.B) {
	ukeys, values := recordShape()
	m := New()
	targets := make([]keys.InternalKey, len(ukeys))
	for i := range ukeys {
		m.Add(keys.Seq(i+1), keys.KindSet, ukeys[i], values[i])
		targets[i] = keys.MakeInternalKey(nil, ukeys[i], keys.MaxSeq, keys.KindSeekMax)
	}
	rand.New(rand.NewSource(2)).Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, found := m.GetSeek(targets[i%len(targets)]); !found {
			b.Fatal("entry not found")
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	m := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Add(keys.Seq(i+1), keys.KindSet, []byte(fmt.Sprintf("key%09d", i)), []byte("value"))
	}
}

func BenchmarkGet(b *testing.B) {
	m := New()
	for i := 0; i < 100000; i++ {
		m.Add(keys.Seq(i+1), keys.KindSet, []byte(fmt.Sprintf("key%09d", i)), []byte("value"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get([]byte(fmt.Sprintf("key%09d", i%100000)), keys.MaxSeq)
	}
}

func BenchmarkConcurrentAdd(b *testing.B) {
	m := New()
	var seq atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s := seq.Add(1)
			m.Add(keys.Seq(s), keys.KindSet, []byte(fmt.Sprintf("key%09d", s%1000000)), []byte("value"))
		}
	})
}
