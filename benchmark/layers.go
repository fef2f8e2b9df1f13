package main

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"github.com/bolt-lsm/bolt/internal/batch"
	"github.com/bolt-lsm/bolt/internal/block"
	"github.com/bolt-lsm/bolt/internal/bloom"
	"github.com/bolt-lsm/bolt/internal/cache"
	"github.com/bolt-lsm/bolt/internal/compaction"
	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/histogram"
	"github.com/bolt-lsm/bolt/internal/iterator"
	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/logrec"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/memtable"
	"github.com/bolt-lsm/bolt/internal/sstable"
	"github.com/bolt-lsm/bolt/internal/vfs"
	"github.com/bolt-lsm/bolt/internal/vlog"
	"github.com/bolt-lsm/bolt/internal/wal"
	"github.com/bolt-lsm/bolt/internal/ycsb"
)

// The layer drivers call one package's public functions directly, on
// fixed seeded inputs of the load workload's record shape (23-byte keys,
// 256-byte values), and time them from outside. They are the per-package
// numbers an end-to-end change is attributed with; they run inside every
// traced run, after its measurements are taken.

// driverMetrics lists what the drivers report, in the order they run.
func driverMetrics() []metricDef {
	ns := func(name string) metricDef { return metricDef{name: name, unit: "ns", better: "lower"} }
	us := func(name string) metricDef { return metricDef{name: name, unit: "us", better: "lower"} }
	allocs := func(name string) metricDef { return metricDef{name: name, unit: "count", better: "lower"} }
	return []metricDef{
		ns("batch.put_ns"), allocs("batch.put_allocs"),
		ns("logrec.write_ns_per_rec"), ns("logrec.read_ns_per_rec"),
		ns("wal.append_ns_per_rec"), allocs("wal.append_allocs"), ns("wal.replay_ns_per_rec"),
		ns("vlog.append_ns_per_rec"), allocs("vlog.append_allocs"), ns("vlog.read_ns_per_rec"),
		ns("memtable.insert_ns"), allocs("memtable.insert_allocs"), ns("memtable.get_ns"), ns("memtable.iter_next_ns"),
		ns("bloom.build_ns_per_key"), ns("bloom.probe_ns"),
		ns("block.build_ns_per_entry"), ns("block.seek_ns"), ns("block.next_ns"),
		{name: "sstable.build_mb_per_s", unit: "MiB/s", better: "higher"},
		ns("sstable.get_ns"), allocs("sstable.get_allocs"), ns("sstable.iter_next_ns"),
		ns("iterator.merge_next_ns"), ns("iterator.merge_seek_ns"),
		ns("manifest.edit_encode_ns"), ns("manifest.edit_decode_ns"), us("manifest.log_and_apply_us"),
		ns("cache.block_get_ns"), ns("cache.block_insert_ns"), ns("cache.table_get_ns"),
		us("compaction.pick_us"),
		ns("keys.compare_ns"),
		ns("events.emit_ns"), allocs("events.emit_allocs"),
		ns("histogram.record_ns"),
	}
}

// sink keeps the compiler from discarding a measured call's result.
var sink int

// measure runs body(n) once and returns nanoseconds and heap allocations
// per iteration. body loops n times itself, so no call overhead is added
// to operations that take a few nanoseconds.
func measure(n int, body func(n int)) (nsPerOp, allocsPerOp float64) {
	runtime.GC() // so that a collection owed to the previous driver is not charged to this one
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := now()
	body(n)
	elapsed := now() - start
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// driverInputs are the records every driver works on.
type driverInputs struct {
	n      int
	keys   [][]byte           // n distinct user keys, sorted
	ikeys  []keys.InternalKey // the same keys as internal keys, seq = index+1
	values [][]byte           // n 256-byte values
	probe  []int              // n indexes in seeded random order
	cfg    sstable.Config     // the engine's table format
}

func newDriverInputs(seed int64, n int) *driverInputs {
	in := &driverInputs{n: n, cfg: sstable.Config{BlockSize: 4096, EntryPadding: 88, BloomBitsPerKey: 10}}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		in.keys = append(in.keys, ycsb.Key(int64(i)))
		v := make([]byte, 256)
		rng.Read(v)
		in.values = append(in.values, v)
	}
	slices.SortFunc(in.keys, bytes.Compare)
	for i, k := range in.keys {
		in.ikeys = append(in.ikeys, keys.MakeInternalKey(nil, k, keys.Seq(i+1), keys.KindSet))
	}
	in.probe = rng.Perm(n)
	return in
}

// runLayerDrivers runs every driver and returns its metrics by name. A
// driver that fails reports zeros: the run's own verdict does not depend
// on the drivers, and a zero is visible in the output.
func runLayerDrivers(seed int64, smoke bool) map[string]float64 {
	n := 20_000
	if smoke {
		n = 2_000
	}
	in := newDriverInputs(seed, n)
	out := map[string]float64{}
	for _, d := range driverMetrics() {
		out[d.name] = 0
	}
	in.batchAndLog(out)
	in.valueLog(out)
	in.memtable(out)
	in.bloomAndBlock(out)
	in.table(out)
	in.merging(out)
	in.manifestAndPicker(out)
	in.small(out)
	return out
}

func (in *driverInputs) batchAndLog(out map[string]float64) {
	out["batch.put_ns"], out["batch.put_allocs"] = measure(in.n, func(n int) {
		for i := 0; i < n; i++ {
			b := batch.New()
			b.Put(in.keys[i], in.values[i])
			sink += b.Size()
		}
	})

	// One WAL record per put, as a single-client load writes them.
	records := make([][]byte, in.n)
	for i := range records {
		b := batch.New()
		b.Put(in.keys[i], in.values[i])
		b.SetSeq(keys.Seq(i + 1))
		records[i] = b.Repr()
	}
	lw := logrec.NewWriter(io.Discard)
	out["logrec.write_ns_per_rec"], _ = measure(in.n, func(n int) {
		for i := 0; i < n; i++ {
			if lw.WriteRecord(records[i]) != nil {
				return
			}
		}
	})
	var framed bytes.Buffer
	lw = logrec.NewWriter(&framed)
	for _, rec := range records {
		if lw.WriteRecord(rec) != nil {
			return
		}
	}
	out["logrec.read_ns_per_rec"], _ = measure(in.n, func(n int) {
		lr := logrec.NewReader(framed.Bytes())
		for i := 0; i < n; i++ {
			rec, err := lr.Next()
			if err != nil {
				return
			}
			sink += len(rec)
		}
	})

	fs := vfs.NewMem()
	name := manifest.LogFileName(1)
	w, err := wal.NewWriter(fs, name)
	if err != nil {
		return
	}
	out["wal.append_ns_per_rec"], out["wal.append_allocs"] = measure(in.n, func(n int) {
		for i := 0; i < n; i++ {
			if w.AddRecord(records[i]) != nil {
				return
			}
		}
	})
	if w.Close() != nil {
		return
	}
	out["wal.replay_ns_per_rec"], _ = measure(in.n, func(int) {
		_, _ = wal.Replay(fs, name, func(b *batch.Batch) error {
			sink += b.Count()
			return nil
		})
	})
}

func (in *driverInputs) valueLog(out map[string]float64) {
	fs := vfs.NewMem()
	name := manifest.VLogFileName(1)
	w, err := vlog.NewWriter(fs, name, 1)
	if err != nil {
		return
	}
	pointers := make([]vlog.Pointer, in.n)
	out["vlog.append_ns_per_rec"], out["vlog.append_allocs"] = measure(in.n, func(n int) {
		for i := 0; i < n; i++ {
			pointers[i], err = w.Append(in.keys[i], in.values[i])
			if err != nil {
				return
			}
		}
	})
	if err != nil || w.Close() != nil {
		return
	}
	f, err := fs.Open(name)
	if err != nil {
		return
	}
	defer f.Close()
	out["vlog.read_ns_per_rec"], _ = measure(in.n, func(n int) {
		for _, i := range in.probe[:n] {
			_, v, err := vlog.ReadRecord(f, pointers[i])
			if err != nil {
				return
			}
			sink += len(v)
		}
	})
}

func (in *driverInputs) memtable(out map[string]float64) {
	m := memtable.New()
	out["memtable.insert_ns"], out["memtable.insert_allocs"] = measure(in.n, func(n int) {
		for _, i := range in.probe[:n] {
			m.Add(keys.Seq(i+1), keys.KindSet, in.keys[i], in.values[i])
		}
	})
	out["memtable.get_ns"], _ = measure(in.n, func(n int) {
		for _, i := range in.probe[:n] {
			v, _, _ := m.Get(in.keys[i], keys.Seq(in.n+1))
			sink += len(v)
		}
	})
	out["memtable.iter_next_ns"], _ = measure(in.n, func(int) {
		it := m.NewIter()
		for ok := it.First(); ok; ok = it.Next() {
			sink += len(it.Value())
		}
		_ = it.Close() // a memtable iterator's Close cannot fail
	})
}

func (in *driverInputs) bloomAndBlock(out map[string]float64) {
	// A 64 KiB logical SSTable of this record shape holds about 170 keys.
	const perFilter = 170
	var filter bloom.Filter
	out["bloom.build_ns_per_key"], _ = measure(in.n/perFilter*perFilter, func(n int) {
		for i := 0; i+perFilter <= n; i += perFilter {
			filter = bloom.Build(in.keys[i:i+perFilter], 10)
		}
	})
	out["bloom.probe_ns"], _ = measure(in.n, func(n int) {
		for _, i := range in.probe[:n] {
			if filter.MayContain(in.keys[i]) {
				sink++
			}
		}
	})

	b := block.NewBuilder(0, in.cfg.EntryPadding)
	var last []byte
	firstEntry, entries := 0, 0
	out["block.build_ns_per_entry"], _ = measure(in.n, func(n int) {
		for i := 0; i < n; i++ {
			if b.EstimatedSize() >= in.cfg.BlockSize {
				last = append(last[:0], b.Finish()...)
				firstEntry, entries = i-b.NumEntries(), b.NumEntries()
				b.Reset()
			}
			b.Add(in.ikeys[i], in.values[i])
		}
	})
	r, err := block.NewReader(last)
	if err != nil || entries == 0 {
		return
	}
	it := r.Iter()
	out["block.seek_ns"], _ = measure(in.n, func(n int) {
		for i := 0; i < n; i++ {
			if it.Seek(in.ikeys[firstEntry+i%entries]) {
				sink++
			}
		}
	})
	out["block.next_ns"], _ = measure(in.n/entries*entries, func(n int) {
		for done := 0; done < n; done += entries {
			for ok := it.First(); ok; ok = it.Next() {
				sink += len(it.Value())
			}
		}
	})
}

// table builds one table of every input record, then reads it through a
// block cache large enough to hold it, as read-hot does.
func (in *driverInputs) table(out map[string]float64) {
	fs := vfs.NewMem()
	meta := &manifest.FileMeta{Num: 7, PhysNum: 7}
	name := manifest.TableFileName(meta.PhysNum)
	f, err := fs.Create(name)
	if err != nil {
		return
	}
	var info sstable.TableInfo
	buildNs, _ := measure(1, func(int) {
		w := sstable.NewWriter(f, 0, in.cfg)
		for i, k := range in.ikeys {
			if err = w.Add(k, in.values[i]); err != nil {
				return
			}
		}
		info, err = w.Finish()
	})
	if err != nil || f.Sync() != nil || f.Close() != nil {
		return
	}
	out["sstable.build_mb_per_s"] = float64(info.Size) / mib / (buildNs / 1e9)
	meta.Size, meta.Smallest, meta.Largest = info.Size, info.Smallest, info.Largest

	blocks := cache.NewBlockCache(64<<20, 0)
	tables := cache.NewTableCache(fs, 100, 0, cache.NewFDCache(fs, 100, 0), blocks, in.cfg)
	defer tables.Close()
	r, release, err := tables.Get(meta)
	if err != nil {
		return
	}
	defer release()
	seek := make([]keys.InternalKey, in.n)
	for i, k := range in.keys {
		seek[i] = keys.MakeInternalKey(nil, k, keys.Seq(in.n+1), keys.KindSeekMax)
	}
	get := func(n int) {
		for _, i := range in.probe[:n] {
			v, _, _, _, err := r.Get(seek[i])
			if err != nil {
				return
			}
			sink += len(v)
		}
	}
	get(in.n) // fill the block cache
	out["sstable.get_ns"], out["sstable.get_allocs"] = measure(in.n, get)
	out["sstable.iter_next_ns"], _ = measure(in.n, func(int) {
		it := r.NewIter(sstable.IterOpts{})
		for ok := it.First(); ok; ok = it.Next() {
			sink += len(it.Value())
		}
		_ = it.Close() // read errors already ended the loop; the count shows it
	})

	out["cache.table_get_ns"], _ = measure(in.n, func(n int) {
		for i := 0; i < n; i++ {
			_, done, err := tables.Get(meta)
			if err != nil {
				return
			}
			done()
		}
	})
	data := make([]byte, in.cfg.BlockSize)
	const resident = 1024
	small := cache.NewBlockCache(resident*int64(len(data)), 0)
	out["cache.block_insert_ns"], _ = measure(in.n, func(n int) {
		for i := 0; i < n; i++ {
			small.Insert(1, int64(i)*int64(len(data)), data)
		}
	})
	out["cache.block_get_ns"], _ = measure(in.n, func(n int) {
		for i := 0; i < n; i++ {
			// The last `resident` inserts are the ones still cached.
			if b, ok := small.Get(1, int64(n-1-i%(resident/2))*int64(len(data))); ok {
				sink += len(b)
			}
		}
	})
}

// merging interleaves the records over eight sources, as a read or a
// compaction over eight sorted runs sees them.
func (in *driverInputs) merging(out map[string]float64) {
	const ways = 8
	runs := make([][]iterator.KV, ways)
	for i, k := range in.ikeys {
		runs[i%ways] = append(runs[i%ways], iterator.KV{K: k, V: in.values[i]})
	}
	sources := make([]iterator.Iterator, ways)
	for i := range sources {
		sources[i] = iterator.NewSlice(runs[i])
	}
	m := iterator.NewMerging(sources...)
	out["iterator.merge_next_ns"], _ = measure(in.n, func(int) {
		for ok := m.First(); ok; ok = m.Next() {
			sink += len(m.Value())
		}
	})
	out["iterator.merge_seek_ns"], _ = measure(in.n, func(n int) {
		for _, i := range in.probe[:n] {
			if m.Seek(in.ikeys[i]) {
				sink++
			}
		}
	})
	_ = m.Close() // slice sources hold nothing to release
}

// manifestAndPicker builds a three-level version, then measures encoding
// and committing a compaction-sized edit and picking the next compaction.
func (in *driverInputs) manifestAndPicker(out map[string]float64) {
	fs := vfs.NewMem()
	vs, err := manifest.Create(fs)
	if err != nil {
		return
	}
	defer vs.Close()
	// Tables of 170 consecutive keys: four overlapping ones in L0, a
	// disjoint run in L1 and a longer one in L2.
	const perTable = 170
	tableAt := func(i int) *manifest.FileMeta {
		lo := i * perTable % (in.n - perTable)
		return &manifest.FileMeta{
			Num: vs.NextFileNum(), Size: 64 << 10,
			Smallest: in.ikeys[lo], Largest: in.ikeys[lo+perTable-1],
		}
	}
	setup := &manifest.VersionEdit{}
	tablesPerLevel := in.n / perTable / 2
	for i := 0; i < 4; i++ {
		m := tableAt(0)
		m.PhysNum = m.Num
		setup.AddFile(0, m)
	}
	for level := 1; level <= 2; level++ {
		for i := 0; i < tablesPerLevel; i++ {
			m := tableAt(i*2 + level - 1)
			m.PhysNum = m.Num
			setup.AddFile(level, m)
		}
	}
	//boltvet:ignore barrierorder -- the edit names tables that exist only as metadata; no data file is written, so there is no data barrier to order
	if vs.LogAndApply(setup) != nil {
		return
	}

	// The edit a group compaction commits: sixteen tables out, sixteen in.
	edit := &manifest.VersionEdit{}
	for i := 0; i < 16; i++ {
		edit.DeleteFile(1, uint64(100+i))
		edit.AddFile(2, tableAt(i))
	}
	var encoded []byte
	const rounds = 2_000
	out["manifest.edit_encode_ns"], _ = measure(rounds, func(n int) {
		for i := 0; i < n; i++ {
			encoded = edit.Encode()
		}
	})
	out["manifest.edit_decode_ns"], _ = measure(rounds, func(n int) {
		for i := 0; i < n; i++ {
			e, err := manifest.DecodeEdit(encoded)
			if err != nil {
				return
			}
			sink += len(e.Added)
		}
	})

	picker := &compaction.Picker{Opts: compaction.Options{
		L0Trigger: 4, L1MaxBytes: (10 << 20) / sizeDiv, Multiplier: 10,
		GroupBytes: (64 << 20) / sizeDiv, Settled: true, L0ByPhysicalFiles: true,
	}}
	pickNs, _ := measure(rounds, func(n int) {
		for i := 0; i < n; i++ {
			if c := picker.Pick(vs.Current(), compaction.Env{}); c != nil {
				sink += len(c.Inputs)
			}
		}
	})
	out["compaction.pick_us"] = pickNs / 1e3

	// Each commit adds one table to the deepest level and removes the one
	// the previous commit added, so the version keeps its size.
	var prev uint64
	const commits = 200
	applyNs, _ := measure(commits, func(n int) {
		for i := 0; i < n; i++ {
			e := &manifest.VersionEdit{}
			m := &manifest.FileMeta{
				Size: 64 << 10, Smallest: in.ikeys[in.n-2], Largest: in.ikeys[in.n-1],
			}
			m.Num = vs.NextFileNum()
			m.PhysNum = m.Num
			e.AddFile(3, m)
			if prev != 0 {
				e.DeleteFile(3, prev)
			}
			prev = m.Num
			//boltvet:ignore barrierorder -- metadata-only tables, as above
			if vs.LogAndApply(e) != nil {
				return
			}
		}
	})
	out["manifest.log_and_apply_us"] = applyNs / 1e3
}

func (in *driverInputs) small(out map[string]float64) {
	out["keys.compare_ns"], _ = measure(in.n-1, func(n int) {
		for i := 0; i < n; i++ {
			sink += keys.Compare(in.ikeys[i], in.ikeys[i+1])
		}
	})
	log := events.NewLog(512, nil)
	out["events.emit_ns"], out["events.emit_allocs"] = measure(in.n, func(n int) {
		for i := 0; i < n; i++ {
			log.Emit(events.Event{Type: events.TypeFlushEnd, Outputs: i, BytesOut: 4 << 20, Barriers: 1, Job: uint64(i)})
		}
	})
	var h histogram.Histogram
	out["histogram.record_ns"], _ = measure(in.n, func(n int) {
		for i := 0; i < n; i++ {
			h.Record(time.Duration(i) * time.Microsecond)
		}
	})
}
