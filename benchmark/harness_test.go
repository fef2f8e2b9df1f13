package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bolt-lsm/bolt/internal/core"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/vfs"
	"github.com/bolt-lsm/bolt/internal/ycsb"
)

func TestPercentileIsNearestRank(t *testing.T) {
	s := make(samples, 1000)
	for i := range s {
		s[i] = uint32((i + 1) * 1000) // 1..1000 us
	}
	for _, c := range []struct {
		p      float64
		us     float64
		beyond int
	}{{0.5, 500, 500}, {0.95, 950, 50}, {0.99, 990, 10}, {0.999, 999, 1}, {1, 1000, 0}} {
		us, beyond := percentile(s, c.p)
		if us != c.us || beyond != c.beyond {
			t.Errorf("percentile(%v) = %v us with %d beyond, want %v with %d", c.p, us, beyond, c.us, c.beyond)
		}
	}
	if us, beyond := percentile(nil, 0.5); us != 0 || beyond != 0 {
		t.Errorf("percentile of nothing = %v, %d", us, beyond)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{3, 1, 4, 2, 5, 10, 9, 7, 8, 6}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// Two sets of runs of the same code disagree when the second median is
// off by more than the bound in either direction, or when a set is spread
// wider than the bound.
func TestCompareSets(t *testing.T) {
	set := func(centre, step float64) []float64 {
		v := make([]float64, 10)
		for i := range v {
			v[i] = centre + step*float64(i-5)
		}
		return v
	}
	lower := metricDef{name: "m", better: "lower", bound: 0.25}
	higher := metricDef{name: "m", better: "higher", bound: 0.25}
	for _, c := range []struct {
		name     string
		a, b     []float64
		d        metricDef
		worse    bool // sign of the reported difference
		disagree bool
	}{
		{"same", set(100, 1), set(101, 1), lower, true, false},
		{"40% worse, lower is better", set(100, 1), set(140, 1), lower, true, true},
		{"40% better, lower is better", set(100, 1), set(60, 1), lower, false, true},
		{"40% better, higher is better", set(100, 1), set(140, 1), higher, false, true},
		{"wide spread", set(100, 1), set(100, 10), lower, false, true},
	} {
		worse, _, disagree := compareSets(c.a, c.b, c.d)
		if disagree != c.disagree || (worse > 0) != c.worse {
			t.Errorf("%s: worse %+.2f, disagree %v; want worse>0 %v, disagree %v", c.name, worse, disagree, c.worse, c.disagree)
		}
	}
}

// opStreamHash digests the first n operations of a workload's timed phase.
func opStreamHash(w *workload, seed int64, n int) uint64 {
	h := fnv.New64a()
	gen := timedGenerator(w, seed, 0, w.preload)
	for i := 0; i < n; i++ {
		op := gen.Next()
		fmt.Fprintf(h, "%d|%s|%x|%d;", op.Kind, op.Key, op.Value, op.ScanLen)
	}
	return h.Sum64()
}

func TestSeedFixesTheOperationStream(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, again, b := opStreamHash(w, 7, 2000), opStreamHash(w, 7, 2000), opStreamHash(w, 8, 2000)
		if a != again {
			t.Errorf("%s: the same seed gave two operation streams", w.name)
		}
		if a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same operation stream", w.name)
		}
	}
}

func TestTraceFSIsByteTransparent(t *testing.T) {
	mem := vfs.NewMem()
	tr := newTracer()
	tr.on.Store(true)
	w := workloadByName("load")
	cfg := engineConfig(w)
	cfg.MemTableBytes = 64 << 10 // several flushes and a compaction in a small test
	cfg.EventListener = tr.listen
	db, err := core.Open(&traceFS{inner: mem, tr: tr}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	value := bytes.Repeat([]byte("v"), 256)
	for i := int64(0); i < n; i++ {
		if err := db.Put(ycsb.Key(i), value); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []spanKind{spWALWrite, spTableWrite, spTableSync, spManifestSync, spFlush, spCreate} {
		if tr.count(kind) == 0 {
			t.Errorf("no %s.%s span was recorded", spanNames[kind].layer, spanNames[kind].name)
		}
	}
	if got := tr.mb(spTableWrite); got <= 0 {
		t.Errorf("table bytes written = %v MiB", got)
	}

	// Reopen on the bare filesystem: what was written through the wrapper
	// must be a complete database without it.
	cfg.EventListener = nil
	db, err = core.Open(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := int64(0); i < n; i++ {
		got, err := db.Get(ycsb.Key(i), nil)
		if err != nil || !bytes.Equal(got, value) {
			t.Fatalf("key %d after reopening without the wrapper: %v", i, err)
		}
	}
}

func TestClassifyFollowsManifestFileNames(t *testing.T) {
	for name, want := range map[string]spanKind{
		manifest.LogFileName(3):      spWALWrite,
		manifest.TableFileName(4):    spTableWrite,
		manifest.ManifestFileName(5): spManifestWrite,
		manifest.VLogFileName(6):     spVLogWrite,
		manifest.CurrentFileName:     spOtherIO,
		manifest.TempFileName(7):     spOtherIO,
	} {
		if got := classify(name).write; got != want {
			t.Errorf("classify(%q).write = %v, want %v", name, got, want)
		}
	}
}

func TestSpanParentsAndSelfTime(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	// A client write that waits in a stall which overlaps its WAL write:
	// the children cover [10,60) of [0,100), once.
	tr.add(spClientWrite, 0, 100)
	tr.add(spWALWrite, 10, 30)
	tr.add(spStall, 20, 60)
	// A compaction with a table write and a table sync inside it, and a
	// table read inside it that no client operation contains.
	tr.add(spCompaction, 50, 1000)
	tr.add(spTableWrite, 200, 300)
	tr.add(spTableSync, 300, 450)
	tr.add(spTableRead, 500, 520)
	// A client read wholly containing a table read, which therefore goes
	// to the read and not to the compaction running beside it.
	tr.add(spClientRead, 600, 700)
	tr.add(spTableRead, 610, 650)
	// A table read outside every client operation and every job.
	tr.add(spTableRead, 2000, 2010)

	self := tr.link()
	type key struct {
		kind  spanKind
		start int64
	}
	index := map[key]int{}
	for i, s := range tr.spans {
		index[key{s.kind, s.start}] = i
	}
	parentOf := func(kind spanKind, start int64) int { return int(tr.spans[index[key{kind, start}]].parent) }
	write, job, read := index[key{spClientWrite, 0}], index[key{spCompaction, 50}], index[key{spClientRead, 600}]
	for _, c := range []struct {
		kind   spanKind
		start  int64
		parent int
	}{
		{spWALWrite, 10, write}, {spStall, 20, write},
		{spTableWrite, 200, job}, {spTableSync, 300, job}, {spTableRead, 500, job},
		{spTableRead, 610, read}, {spTableRead, 2000, -1},
		{spClientWrite, 0, -1}, {spCompaction, 50, -1},
	} {
		if got := parentOf(c.kind, c.start); got != c.parent {
			t.Errorf("parent of %s@%d = %d, want %d", spanNames[c.kind].name, c.start, got, c.parent)
		}
	}
	for _, c := range []struct {
		span int
		want int64
	}{{write, 100 - 50}, {job, 950 - 100 - 150 - 20}, {read, 100 - 40}} {
		if self[c.span] != c.want {
			t.Errorf("self time of span %d = %d, want %d", c.span, self[c.span], c.want)
		}
	}
	if got := tr.maxOverlap(spTableRead); got != 1 {
		t.Errorf("maxOverlap(table reads) = %d, want 1", got)
	}
	if got := tr.maxSeconds(spCompaction); got != 950e-9 {
		t.Errorf("longest compaction = %v s", got)
	}
}

// smokeRun runs one workload at 1/100 size.
func smokeRun(t *testing.T, name string, trace bool) *result {
	t.Helper()
	res, err := runWorkload(workloadByName(name), runOpts{seed: 3, seconds: 10, dir: t.TempDir(), smoke: true}, trace)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSmokeRunsAreCorrectAndQuick(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		res := smokeRun(t, w.name, false)
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, res.failed, res.attempted)
		}
		for _, d := range endToEnd {
			if res.values[d.name] <= 0 {
				t.Errorf("%s: %s = %v; an end-to-end metric is never zero", w.name, d.name, res.values[d.name])
			}
		}
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke runs of every workload took %v, want under 15 s", d)
	}
}

// A client that expects the wrong value must see its reads fail: the
// check is only worth something if it can fail.
func TestWrongExpectationFailsTheRun(t *testing.T) {
	r := &run{w: workloadByName("read-hot"), o: runOpts{seed: 3, seconds: 10, dir: t.TempDir(), smoke: true}}
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	defer r.env.destroy()
	for k := range r.truth.last {
		r.truth.last[k] ^= 1
	}
	if err := r.timed(); err != nil {
		t.Fatal(err)
	}
	c := r.clients[0]
	if c.failed == 0 || c.failed != c.attempted-r.o.scaled(r.w.preload)-r.o.scaled(r.w.warmup) {
		t.Errorf("%d of %d timed reads failed against a wrong expectation, want all", c.failed, c.attempted)
	}
}

// One flipped byte in one table read must surface as a failed operation.
func TestCorruptTableReadFailsTheRun(t *testing.T) {
	var armed atomic.Bool
	var flipped atomic.Int64
	isTable := func(name string) bool {
		kind, _, _ := manifest.ParseFileName(name)
		return kind == manifest.KindTable
	}
	wrap := func(fs vfs.FS) vfs.FS {
		efs := vfs.NewErrorFS(fs)
		efs.SetCorruptor(vfs.FilterCorruptName(isTable, vfs.CorruptorFunc(
			func(op vfs.Op, _ string, _ int64, p []byte, _ int64) {
				if op == vfs.OpReadAt && len(p) > 0 && armed.CompareAndSwap(true, false) {
					p[len(p)/2] ^= 0xff
					flipped.Add(1)
				}
			})))
		return efs
	}
	r := &run{w: workloadByName("mixed-cold"), o: runOpts{seed: 3, seconds: 10, dir: t.TempDir(), smoke: true, wrapFS: wrap}}
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	defer r.env.destroy()
	// At smoke size the records are still in the memtable; move them into
	// tables, which leaves the block cache cold, so that the probe's reads
	// reach the filesystem.
	if err := r.env.db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	before := r.clients[0].failed
	armed.Store(true)
	_ = r.probe() // the engine may also report the corruption as a background error
	if flipped.Load() != 1 {
		t.Fatalf("flipped %d table reads, want 1", flipped.Load())
	}
	if r.clients[0].failed == before {
		t.Error("a corrupted table read did not fail any operation")
	}
}
