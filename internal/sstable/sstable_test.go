package sstable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/simdisk"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

func ik(u string, seq uint64, kind keys.Kind) keys.InternalKey {
	return keys.MakeInternalKey(nil, []byte(u), keys.Seq(seq), kind)
}

type pair struct {
	k keys.InternalKey
	v []byte
}

func numberedPairs(n int) []pair {
	out := make([]pair, n)
	for i := 0; i < n; i++ {
		out[i] = pair{
			k: ik(fmt.Sprintf("user%08d", i), uint64(1000+i), keys.KindSet),
			v: []byte(fmt.Sprintf("value-for-%08d", i)),
		}
	}
	return out
}

// buildTable writes pairs into a new file at the given base offset and
// opens a reader over it.
func buildTable(t testing.TB, fs vfs.FS, name string, base int64, pairs []pair, cfg Config) (*Reader, TableInfo) {
	t.Helper()
	var f vfs.File
	var err error
	if base == 0 {
		f, err = fs.Create(name)
	} else {
		f, err = fs.Open(name)
		if err != nil {
			f, err = fs.Create(name)
		} else {
			f.Close()
			t.Fatal("buildTable with base>0 requires appendTable")
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, base, cfg)
	for _, p := range pairs {
		if err := w.Add(p.k, p.v); err != nil {
			t.Fatal(err)
		}
	}
	info, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(rf, 1, 1, info.Base, info.Size, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r, info
}

func TestRoundTripIterate(t *testing.T) {
	fs := vfs.NewMem()
	pairs := numberedPairs(1000)
	r, info := buildTable(t, fs, "t1", 0, pairs, Config{})
	if info.NumEntries != 1000 {
		t.Fatalf("NumEntries = %d", info.NumEntries)
	}
	if string(info.Smallest.UserKey()) != "user00000000" || string(info.Largest.UserKey()) != "user00000999" {
		t.Fatalf("bounds = %v %v", info.Smallest, info.Largest)
	}
	it := r.NewIter(IterOpts{})
	defer it.Close()
	i := 0
	for ok := it.First(); ok; ok = it.Next() {
		if keys.Compare(it.Key(), pairs[i].k) != 0 || !bytes.Equal(it.Value(), pairs[i].v) {
			t.Fatalf("entry %d mismatch: %v", i, it.Key())
		}
		i++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(pairs) {
		t.Fatalf("iterated %d, want %d", i, len(pairs))
	}
}

func TestGet(t *testing.T) {
	fs := vfs.NewMem()
	pairs := numberedPairs(500)
	r, _ := buildTable(t, fs, "t1", 0, pairs, Config{})
	for i := 0; i < 500; i += 17 {
		u := fmt.Sprintf("user%08d", i)
		v, _, kind, found, err := r.Get(keys.MakeInternalKey(nil, []byte(u), keys.MaxSeq, keys.KindSeekMax))
		if err != nil || !found {
			t.Fatalf("Get(%s) = found=%v err=%v", u, found, err)
		}
		if kind != keys.KindSet || string(v) != fmt.Sprintf("value-for-%08d", i) {
			t.Fatalf("Get(%s) = %q kind=%v", u, v, kind)
		}
	}
	// Absent keys.
	for _, u := range []string{"user99999999", "aaaa", "user00000010x"} {
		_, _, _, found, err := r.Get(keys.MakeInternalKey(nil, []byte(u), keys.MaxSeq, keys.KindSeekMax))
		if err != nil {
			t.Fatal(err)
		}
		if found {
			t.Fatalf("Get(%s) found a phantom", u)
		}
	}
}

func TestGetHonorsSnapshotSeq(t *testing.T) {
	fs := vfs.NewMem()
	ps := []pair{
		{k: ik("k", 20, keys.KindSet), v: []byte("v20")},
		{k: ik("k", 10, keys.KindDelete), v: nil},
		{k: ik("k", 5, keys.KindSet), v: []byte("v5")},
	}
	r, _ := buildTable(t, fs, "t1", 0, ps, Config{})
	v, gotSeq, kind, found, err := r.Get(keys.MakeInternalKey(nil, []byte("k"), 15, keys.KindSeekMax))
	if err != nil || !found || kind != keys.KindDelete || gotSeq != 10 {
		t.Fatalf("seq15: v=%q seq=%d kind=%v found=%v err=%v", v, gotSeq, kind, found, err)
	}
	v, gotSeq, kind, found, err = r.Get(keys.MakeInternalKey(nil, []byte("k"), 7, keys.KindSeekMax))
	if err != nil || !found || kind != keys.KindSet || string(v) != "v5" || gotSeq != 5 {
		t.Fatalf("seq7: v=%q seq=%d kind=%v found=%v err=%v", v, gotSeq, kind, found, err)
	}
}

func TestLogicalTablesShareFile(t *testing.T) {
	// Three logical tables in one physical file — the BoLT layout.
	fs := vfs.NewMem()
	f, err := fs.Create("compaction-file")
	if err != nil {
		t.Fatal(err)
	}
	var infos []TableInfo
	var allPairs [][]pair
	base := int64(0)
	for part := 0; part < 3; part++ {
		var ps []pair
		for i := 0; i < 200; i++ {
			ps = append(ps, pair{
				k: ik(fmt.Sprintf("p%d-%05d", part, i), uint64(i+1), keys.KindSet),
				v: []byte(fmt.Sprintf("val-%d-%d", part, i)),
			})
		}
		w := NewWriter(f, base, Config{})
		for _, p := range ps {
			if err := w.Add(p.k, p.v); err != nil {
				t.Fatal(err)
			}
		}
		info, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if info.Base != base {
			t.Fatalf("part %d base = %d, want %d", part, info.Base, base)
		}
		base += info.Size
		infos = append(infos, info)
		allPairs = append(allPairs, ps)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rf, err := fs.Open("compaction-file")
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	for part, info := range infos {
		r, err := OpenReader(rf, uint64(part+1), 1, info.Base, info.Size, nil)
		if err != nil {
			t.Fatalf("open logical table %d: %v", part, err)
		}
		it := r.NewIter(IterOpts{})
		i := 0
		for ok := it.First(); ok; ok = it.Next() {
			want := allPairs[part][i]
			if keys.Compare(it.Key(), want.k) != 0 || !bytes.Equal(it.Value(), want.v) {
				t.Fatalf("logical table %d entry %d mismatch", part, i)
			}
			i++
		}
		if i != len(allPairs[part]) || it.Err() != nil {
			t.Fatalf("logical table %d: %d entries err=%v", part, i, it.Err())
		}
		it.Close()
	}
}

func TestHolePunchedNeighborDoesNotAffectTable(t *testing.T) {
	// Punch a hole over the first logical table; the second must stay intact.
	fs := vfs.NewMem()
	f, _ := fs.Create("cf")
	w1 := NewWriter(f, 0, Config{})
	for i := 0; i < 100; i++ {
		w1.Add(ik(fmt.Sprintf("a%04d", i), 1, keys.KindSet), []byte("dead"))
	}
	info1, err := w1.Finish()
	if err != nil {
		t.Fatal(err)
	}
	w2 := NewWriter(f, info1.Size, Config{})
	for i := 0; i < 100; i++ {
		w2.Add(ik(fmt.Sprintf("b%04d", i), 1, keys.KindSet), []byte("alive"))
	}
	info2, err := w2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f.Sync()
	if err := f.PunchHole(0, info1.Size); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rf, _ := fs.Open("cf")
	defer rf.Close()
	r, err := OpenReader(rf, 2, 1, info2.Base, info2.Size, nil)
	if err != nil {
		t.Fatalf("open survivor after hole punch: %v", err)
	}
	it := r.NewIter(IterOpts{})
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		if string(it.Value()) != "alive" {
			t.Fatalf("corrupted value %q", it.Value())
		}
		n++
	}
	if n != 100 || it.Err() != nil {
		t.Fatalf("survivor: %d entries err=%v", n, it.Err())
	}
	// The punched table must now fail its checksum (reads as zeros).
	if _, err := OpenReader(rf, 1, 1, 0, info1.Size, nil); err == nil {
		t.Fatal("punched table should not open cleanly")
	}
}

func TestSeek(t *testing.T) {
	fs := vfs.NewMem()
	pairs := numberedPairs(300)
	r, _ := buildTable(t, fs, "t", 0, pairs, Config{BlockSize: 512})
	it := r.NewIter(IterOpts{})
	defer it.Close()
	// Seek to every 13th key and verify landing plus subsequent order.
	for i := 0; i < 300; i += 13 {
		target := keys.MakeInternalKey(nil, []byte(fmt.Sprintf("user%08d", i)), keys.MaxSeq, keys.KindSeekMax)
		if !it.Seek(target) {
			t.Fatalf("Seek(%d) invalid", i)
		}
		if got := string(it.Key().UserKey()); got != fmt.Sprintf("user%08d", i) {
			t.Fatalf("Seek(%d) landed on %s", i, got)
		}
	}
	if it.Seek(ik("zzzz", 1, keys.KindSet)) {
		t.Fatal("seek past end should invalidate")
	}
}

func TestReadaheadIterMatchesNormalIter(t *testing.T) {
	dev := simdisk.NewDevice(simdisk.AccountingProfile())
	fs := vfs.NewSim(dev)
	pairs := numberedPairs(2000)
	r, _ := buildTable(t, fs, "t", 0, pairs, Config{})

	before := dev.Stats().Reads
	it := r.NewIter(IterOpts{Readahead: 512 << 10})
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		if keys.Compare(it.Key(), pairs[n].k) != 0 {
			t.Fatalf("readahead iter mismatch at %d", n)
		}
		n++
	}
	it.Close()
	if n != len(pairs) || it.Err() != nil {
		t.Fatalf("readahead iter: %d entries err=%v", n, it.Err())
	}
	raReads := dev.Stats().Reads - before

	before = dev.Stats().Reads
	it2 := r.NewIter(IterOpts{})
	for ok := it2.First(); ok; ok = it2.Next() {
	}
	it2.Close()
	blockReads := dev.Stats().Reads - before

	if raReads*4 > blockReads {
		t.Fatalf("readahead should drastically cut device reads: %d vs %d", raReads, blockReads)
	}
}

func TestBloomFilterSkipsDeviceReads(t *testing.T) {
	dev := simdisk.NewDevice(simdisk.AccountingProfile())
	fs := vfs.NewSim(dev)
	pairs := numberedPairs(1000)
	r, _ := buildTable(t, fs, "t", 0, pairs, Config{})
	before := dev.Stats().Reads
	misses := 0
	for i := 0; i < 1000; i++ {
		u := fmt.Sprintf("absent%08d", i)
		_, _, _, found, err := r.Get(keys.MakeInternalKey(nil, []byte(u), keys.MaxSeq, keys.KindSeekMax))
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			misses++
		}
	}
	reads := dev.Stats().Reads - before
	if misses < 950 {
		t.Fatalf("only %d misses", misses)
	}
	// Without a bloom filter every absent get would read a data block.
	if reads > 100 {
		t.Fatalf("bloom filter ineffective: %d device reads for 1000 absent gets", reads)
	}
}

func TestNoBloomConfig(t *testing.T) {
	fs := vfs.NewMem()
	pairs := numberedPairs(10)
	r, _ := buildTable(t, fs, "t", 0, pairs, Config{BloomBitsPerKey: -1})
	if !r.MayContain([]byte("anything")) {
		t.Fatal("filterless table must not reject keys")
	}
	_, _, _, found, err := r.Get(keys.MakeInternalKey(nil, []byte("user00000003"), keys.MaxSeq, keys.KindSeekMax))
	if err != nil || !found {
		t.Fatalf("Get without bloom: found=%v err=%v", found, err)
	}
}

func TestCorruptFooterRejected(t *testing.T) {
	fs := vfs.NewMem()
	pairs := numberedPairs(10)
	_, info := buildTable(t, fs, "t", 0, pairs, Config{})
	data, _ := vfs.ReadWholeFile(fs, "t")
	data[len(data)-1] ^= 0xff // clobber magic
	vfs.WriteFile(fs, "bad", data)
	f, _ := fs.Open("bad")
	defer f.Close()
	if _, err := OpenReader(f, 1, 1, 0, info.Size, nil); err == nil {
		t.Fatal("corrupt magic accepted")
	}
}

func TestCorruptDataBlockDetected(t *testing.T) {
	fs := vfs.NewMem()
	pairs := numberedPairs(100)
	_, info := buildTable(t, fs, "t", 0, pairs, Config{})
	data, _ := vfs.ReadWholeFile(fs, "t")
	data[10] ^= 0xff // flip a byte inside the first data block
	vfs.WriteFile(fs, "bad", data)
	f, _ := fs.Open("bad")
	defer f.Close()
	r, err := OpenReader(f, 1, 1, 0, info.Size, nil)
	if err != nil {
		t.Fatal(err) // meta region is intact
	}
	it := r.NewIter(IterOpts{})
	defer it.Close()
	if it.First() {
		// First block is corrupt; iteration must fail, not return garbage.
		t.Fatal("corrupt data block iterated successfully")
	}
	if it.Err() == nil {
		t.Fatal("corrupt block produced no error")
	}
}

type countingCache struct {
	m       map[string][]byte
	hits    int
	inserts int
}

func (c *countingCache) Get(id uint64, off int64) ([]byte, bool) {
	v, ok := c.m[fmt.Sprint(id, ":", off)]
	if ok {
		c.hits++
	}
	return v, ok
}
func (c *countingCache) Insert(id uint64, off int64, data []byte) {
	c.inserts++
	c.m[fmt.Sprint(id, ":", off)] = data
}

func TestBlockCacheUsed(t *testing.T) {
	fs := vfs.NewMem()
	pairs := numberedPairs(100)
	_, info := buildTable(t, fs, "t", 0, pairs, Config{})
	f, _ := fs.Open("t")
	defer f.Close()
	cc := &countingCache{m: map[string][]byte{}}
	r, err := OpenReader(f, 1, 1, 0, info.Size, cc)
	if err != nil {
		t.Fatal(err)
	}
	target := keys.MakeInternalKey(nil, []byte("user00000050"), keys.MaxSeq, keys.KindSeekMax)
	r.Get(target)
	r.Get(target)
	if cc.inserts == 0 || cc.hits == 0 {
		t.Fatalf("cache unused: inserts=%d hits=%d", cc.inserts, cc.hits)
	}
}

// TestGetValueDoesNotAliasCache pins the BlockCache ownership rule at
// the reader boundary: Get must return a copy, so a caller mutating its
// result cannot corrupt the cached block that later hits share.
func TestGetValueDoesNotAliasCache(t *testing.T) {
	fs := vfs.NewMem()
	pairs := numberedPairs(100)
	_, info := buildTable(t, fs, "t", 0, pairs, Config{})
	f, _ := fs.Open("t")
	defer f.Close()
	cc := &countingCache{m: map[string][]byte{}}
	r, err := OpenReader(f, 1, 1, 0, info.Size, cc)
	if err != nil {
		t.Fatal(err)
	}
	target := keys.MakeInternalKey(nil, []byte("user00000050"), keys.MaxSeq, keys.KindSeekMax)
	v1, _, _, found, err := r.Get(target)
	if err != nil || !found {
		t.Fatalf("Get: found=%v err=%v", found, err)
	}
	want := string(v1)
	for i := range v1 {
		v1[i] = 'X'
	}
	v2, _, _, found, err := r.Get(target) // cache hit on the same block
	if err != nil || !found {
		t.Fatalf("Get (hit): found=%v err=%v", found, err)
	}
	if string(v2) != want {
		t.Fatalf("mutating Get's result corrupted the cached block: got %q, want %q", v2, want)
	}
	if cc.hits == 0 {
		t.Fatal("second Get did not hit the cache; test proved nothing")
	}
}

// TestGetUnfilteredSkipsFilter: Get asks the filter first, so a key it
// excludes reads no block; GetUnfiltered, the path the engine takes after
// its own probe, does not ask again and reads the block, and for keys the
// filter admits the two agree.
func TestGetUnfilteredSkipsFilter(t *testing.T) {
	fs := vfs.NewMem()
	pairs := numberedPairs(100)
	_, info := buildTable(t, fs, "t", 0, pairs, Config{})
	f, _ := fs.Open("t")
	defer f.Close()
	cc := &countingCache{m: map[string][]byte{}}
	r, err := OpenReader(f, 1, 1, 0, info.Size, cc)
	if err != nil {
		t.Fatal(err)
	}
	var excluded []byte
	for i := 0; i < 1000 && excluded == nil; i++ {
		// Between two stored keys, so the index points at a real block.
		if k := []byte(fmt.Sprintf("user%08d-%d", i%100, i)); !r.MayContain(k) {
			excluded = k
		}
	}
	if excluded == nil {
		t.Fatal("the filter admits every probe key")
	}
	target := keys.MakeInternalKey(nil, excluded, keys.MaxSeq, keys.KindSeekMax)
	lookups := func() int { return cc.hits + cc.inserts }
	if _, _, _, found, err := r.Get(target); found || err != nil || lookups() != 0 {
		t.Fatalf("Get(%q): found=%v err=%v after %d block lookups; want a filtered miss reading nothing", excluded, found, err, lookups())
	}
	if _, _, _, found, err := r.GetUnfiltered(target); found || err != nil || lookups() != 1 {
		t.Fatalf("GetUnfiltered(%q): found=%v err=%v after %d block lookups; want a miss that read its block", excluded, found, err, lookups())
	}
	for _, p := range pairs {
		seek := keys.MakeInternalKey(nil, p.k.UserKey(), keys.MaxSeq, keys.KindSeekMax)
		v1, seq1, kind1, found1, err1 := r.Get(seek)
		v2, seq2, kind2, found2, err2 := r.GetUnfiltered(seek)
		if !found1 || err1 != nil || !bytes.Equal(v1, p.v) || !bytes.Equal(v1, v2) || seq1 != seq2 || kind1 != kind2 || found1 != found2 || err2 != nil {
			t.Fatalf("%q: Get = %q %d %v %v %v, GetUnfiltered = %q %d %v %v %v", p.k.UserKey(), v1, seq1, kind1, found1, err1, v2, seq2, kind2, found2, err2)
		}
	}
}

func TestMetaSizeGrowsWithTableSize(t *testing.T) {
	fs := vfs.NewMem()
	_, small := buildTable(t, fs, "small", 0, numberedPairs(100), Config{})
	_, large := buildTable(t, fs, "large", 0, numberedPairs(5000), Config{})
	if large.MetaSize <= small.MetaSize {
		t.Fatalf("meta size should grow with table size: %d vs %d", large.MetaSize, small.MetaSize)
	}
}

// Property: random sorted unique keysets round-trip through a table.
func TestRoundTripProperty(t *testing.T) {
	f := func(rawKeys [][]byte, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		uniq := map[string][]byte{}
		for _, k := range rawKeys {
			if len(k) == 0 {
				continue
			}
			v := make([]byte, rng.Intn(128))
			rng.Read(v)
			uniq[string(k)] = v
		}
		var sorted []string
		for k := range uniq {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		if len(sorted) == 0 {
			return true
		}

		fs := vfs.NewMem()
		file, _ := fs.Create("t")
		w := NewWriter(file, 0, Config{BlockSize: 256})
		for i, k := range sorted {
			if err := w.Add(ik(k, uint64(i+1), keys.KindSet), uniq[k]); err != nil {
				return false
			}
		}
		info, err := w.Finish()
		if err != nil {
			return false
		}
		file.Close()
		rf, _ := fs.Open("t")
		defer rf.Close()
		r, err := OpenReader(rf, 1, 1, 0, info.Size, nil)
		if err != nil {
			return false
		}
		it := r.NewIter(IterOpts{})
		defer it.Close()
		i := 0
		for ok := it.First(); ok; ok = it.Next() {
			if string(it.Key().UserKey()) != sorted[i] || !bytes.Equal(it.Value(), uniq[sorted[i]]) {
				return false
			}
			i++
		}
		return it.Err() == nil && i == len(sorted)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// offsetCache is a block cache for one table that allocates nothing per
// lookup, so a benchmark's allocations are the reader's own.
type offsetCache map[int64][]byte

func (c offsetCache) Get(_ uint64, off int64) ([]byte, bool) {
	v, ok := c[off]
	return v, ok
}

func (c offsetCache) Insert(_ uint64, off int64, data []byte) { c[off] = data }

// BenchmarkTableGet is a cached point read of one table: index seek, block
// cache hit, block seek and the value's copy, which is the only
// allocation (the CI alloc guard holds it there). Seek keys are built
// before the timer.
func BenchmarkTableGet(b *testing.B) {
	fs := vfs.NewMem()
	pairs := numberedPairs(10000)
	_, info := buildTable(b, fs, "t", 0, pairs, Config{})
	f, err := fs.Open("t")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	r, err := OpenReader(f, 1, 1, 0, info.Size, offsetCache{})
	if err != nil {
		b.Fatal(err)
	}
	seek := make([]keys.InternalKey, len(pairs))
	for i, p := range pairs {
		seek[i] = keys.MakeInternalKey(nil, p.k.UserKey(), keys.MaxSeq, keys.KindSeekMax)
		if _, _, _, found, err := r.Get(seek[i]); !found || err != nil {
			b.Fatalf("%q: found=%v err=%v", p.k.UserKey(), found, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Get(seek[i%len(seek)])
	}
}

func BenchmarkTableBuild(b *testing.B) {
	fs := vfs.NewMem()
	pairs := numberedPairs(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _ := fs.Create("t")
		w := NewWriter(f, 0, Config{})
		for _, p := range pairs {
			w.Add(p.k, p.v)
		}
		w.Finish()
		f.Close()
	}
}
