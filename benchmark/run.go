package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"syscall"
	"time"

	"github.com/bolt-lsm/bolt/internal/core"
	"github.com/bolt-lsm/bolt/internal/metrics"
	"github.com/bolt-lsm/bolt/internal/simdisk"
	"github.com/bolt-lsm/bolt/internal/vfs"
	"github.com/bolt-lsm/bolt/internal/ycsb"
)

// runOpts is one invocation's input.
type runOpts struct {
	seed    int64
	seconds float64
	dir     string
	// smoke divides every size by smokeDiv: preload, warm-up, probe and
	// the timed duration. It exists for tests.
	smoke bool
	// wrapFS, when set, is put between the engine and its filesystem; the
	// negative tests inject read corruption through it.
	wrapFS func(vfs.FS) vfs.FS
}

const smokeDiv = 100

func (o runOpts) scaled(n int64) int64 {
	if o.smoke && n > 0 {
		return max(n/smokeDiv, 1)
	}
	return n
}

// env is one open database and, on OS-backed runs, its directory.
type env struct {
	dir string
	db  *core.DB
}

// counters is a point-in-time copy of every counter the per-layer metrics
// are deltas of.
type counters struct {
	at        int64
	met       metrics.Snapshot
	io        core.IOSnapshot
	cache     core.CacheStats
	dev       simdisk.Stats
	mem       runtime.MemStats
	mutexWait float64
}

// run is one pass over a workload: set-up, timed phase, drain, probe,
// reopen. The phases are separate methods so tests can step through them.
type run struct {
	w  *workload
	o  runOpts
	tr *tracer // nil on the untraced pass

	env *env
	// mem is load-ssd's simulated filesystem; it outlives env so that the
	// reopen finds the files.
	mem     *vfs.MemFS
	truth   *truth
	clients []*client
	gens    []*ycsb.Generator

	setupSeconds []float64

	timedOps       int64
	ackSeconds     float64 // first timed op → last timed op acknowledged
	drainSeconds   float64 // last acknowledgement → WaitIdle returned
	before, after  counters
	reopenSeconds  float64
	spaceAllocated int64 // at quiescence
	// What set-up's manual compaction cost. The counts leave it out: it
	// is the harness's device for building a settled tree, and the engine
	// does it in about 6 compactions or about 107 depending on a race
	// (README.md, findings).
	settleFsyncs, settleBytes int64
	// What the generators allocate per operation; taken off the process's
	// allocation count so that core.allocs_per_op is the engine's.
	genAllocs, genAllocBytes float64
}

func (r *run) open() (*env, error) {
	e, cfg := &env{}, engineConfig(r.w)
	var fs vfs.FS
	if r.w.simSSD {
		if r.mem == nil {
			r.mem = vfs.NewSim(simdisk.NewDevice(ssdProfile()))
		}
		fs = r.mem
	} else {
		e.dir = filepath.Join(r.o.dir, r.w.name)
		osfs, err := vfs.NewOS(e.dir)
		if err != nil {
			return nil, err
		}
		fs = osfs
	}
	if r.o.wrapFS != nil {
		fs = r.o.wrapFS(fs)
	}
	if r.tr != nil {
		fs = &traceFS{inner: fs, tr: r.tr}
		cfg.EventListener = r.tr.listen
	}
	db, err := core.Open(fs, cfg)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", r.w.name, err)
	}
	e.db = db
	return e, nil
}

// destroy closes the database and deletes its files.
func (e *env) destroy() error {
	err := e.db.Close()
	if e.dir != "" {
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// setup brings the store to the state the timed phase starts from. It is
// repeated until setupBudget is spent so that short set-ups give a steady
// median; the last instance is the one the run continues on.
func (r *run) setup() error {
	var spent time.Duration
	for rep := 0; ; rep++ {
		r.mem = nil
		if err := os.RemoveAll(filepath.Join(r.o.dir, r.w.name)); err != nil {
			return err
		}
		start := now()
		if err := r.setupOnce(); err != nil {
			return err
		}
		d := time.Duration(now() - start)
		r.setupSeconds = append(r.setupSeconds, d.Seconds())
		spent += d
		if spent >= setupBudget || rep+1 >= setupMaxReps || r.o.smoke {
			return nil
		}
		if err := r.env.destroy(); err != nil {
			return err
		}
	}
}

func (r *run) setupOnce() error {
	e, err := r.open()
	if err != nil {
		return err
	}
	r.env = e
	preload := r.o.scaled(r.w.preload)
	r.truth = newTruth(preload)
	loader := newClient(e.db, r.truth, r.tr)
	if preload > 0 {
		gen := ycsb.NewGenerator(ycsb.GeneratorConfig{
			Workload: ycsb.LoadA, ValueSize: r.w.valueSize, Seed: r.o.seed,
		})
		for i := int64(0); i < preload; i++ {
			loader.do(gen.Next())
		}
		if err := e.db.WaitIdle(); err != nil {
			return err
		}
	}
	if r.w.settle {
		io := e.db.IO().Snapshot()
		if err := e.db.CompactRange(nil, nil); err != nil {
			return err
		}
		if err := e.db.WaitIdle(); err != nil {
			return err
		}
		done := e.db.IO().Snapshot()
		r.settleFsyncs, r.settleBytes = done.Fsyncs-io.Fsyncs, done.BytesWritten-io.BytesWritten
		warm := ycsb.NewGenerator(ycsb.GeneratorConfig{
			Workload: ycsb.WorkloadC, Distribution: r.w.dist, RecordCount: preload,
			ValueSize: r.w.valueSize, Seed: r.o.seed + 1,
		})
		for i, n := int64(0), r.o.scaled(r.w.warmup); i < n; i++ {
			loader.do(warm.Next())
		}
	}
	if loader.failed > 0 {
		return fmt.Errorf("set-up of %s: %d of %d operations failed", r.w.name, loader.failed, loader.attempted)
	}
	r.clients, r.gens = nil, nil
	for i := 0; i < r.w.clients; i++ {
		c := newClient(e.db, r.truth, r.tr)
		if i == 0 {
			c.attempted = loader.attempted // set-up's operations were checked too
		}
		r.clients = append(r.clients, c)
		r.gens = append(r.gens, timedGenerator(r.w, r.o.seed, i, preload))
	}
	return nil
}

// timedGenerator returns the operation stream of one client's timed phase.
// The seed is all that varies between runs of one workload; the engine
// sees only the operations.
func timedGenerator(w *workload, seed int64, client int, preload int64) *ycsb.Generator {
	return ycsb.NewGenerator(ycsb.GeneratorConfig{
		Workload: w.mix, Distribution: w.dist,
		RecordCount: preload, InsertStart: preload,
		ValueSize: w.valueSize, Seed: seed + 2 + int64(client)*7919,
	})
}

// generatorAllocs measures the heap allocations and bytes one generated
// operation of w costs before the engine sees it.
func generatorAllocs(w *workload, seed int64, preload int64) (allocs, bytes float64) {
	const n = 20_000
	gen := timedGenerator(w, seed, 0, preload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		gen.Next()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

func (r *run) snapshot() counters {
	c := counters{
		at:    now(),
		met:   r.env.db.Metrics().Snapshot(),
		io:    r.env.db.IO().Snapshot(),
		cache: r.env.db.CacheStats(),
	}
	if r.mem != nil {
		c.dev = r.mem.Device().Stats()
	}
	runtime.ReadMemStats(&c.mem)
	sample := []rtmetrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() == rtmetrics.KindFloat64 {
		c.mutexWait = sample[0].Value.Float64()
	}
	return c
}

// timed runs the workload's operation mix for the configured duration on
// every client at once, then waits for background work to finish.
func (r *run) timed() error {
	d := time.Duration(r.o.seconds * float64(time.Second))
	if r.o.smoke {
		d /= smokeDiv
	}
	for _, c := range r.clients {
		c.record = true
	}
	r.genAllocs, r.genAllocBytes = generatorAllocs(r.w, r.o.seed, r.o.scaled(r.w.preload))
	r.before = r.snapshot()
	if r.tr != nil {
		r.tr.on.Store(true)
	}
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		//boltvet:goroutine wg -- one per client; runFor returns at its deadline and wg.Wait follows
		go func(c *client, gen *ycsb.Generator) {
			defer wg.Done()
			c.runFor(gen, d)
		}(c, r.gens[i])
	}
	wg.Wait()
	first, last := r.clients[0].firstStart, r.clients[0].lastEnd
	for _, c := range r.clients {
		first, last = min(first, c.firstStart), max(last, c.lastEnd)
		r.timedOps += int64(len(c.lat[classRead]) + len(c.lat[classWrite]) + len(c.lat[classScan]))
	}
	for _, c := range r.clients {
		c.record = false
		if r.tr != nil {
			r.tr.merge(&c.spans)
		}
	}
	r.ackSeconds = float64(last-first) / 1e9
	err := r.env.db.WaitIdle()
	r.after = r.snapshot()
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	r.drainSeconds = float64(r.after.at-last) / 1e9
	r.spaceAllocated = r.allocatedBytes()
	return err
}

// probe is the fixed tail of every workload and its output check: on the
// quiescent store, a read-back of sampled keys and scans from sampled
// keys, every result compared with truth.
func (r *run) probe() error {
	c := r.clients[0]
	rng := rand.New(rand.NewSource(r.o.seed ^ 0x5eed))
	r.readBack(c, rng)
	for i, n := int64(0), r.o.scaled(probeScans); i < n; i++ {
		c.attempted++
		c.scan(ycsb.Key(rng.Int63n(r.truth.records)), 1+rng.Intn(100))
	}
	return nil
}

func (r *run) readBack(c *client, rng *rand.Rand) {
	for i, n := int64(0), r.o.scaled(probeReads); i < n; i++ {
		c.attempted++
		c.get(ycsb.Key(rng.Int63n(r.truth.records)))
	}
}

// reopen closes the database, opens it again and reads the sampled keys
// back once more: what was acknowledged must survive a restart.
func (r *run) reopen() error {
	old := r.env
	if err := old.db.Close(); err != nil {
		return err
	}
	start := now()
	e, err := r.open()
	if err != nil {
		return err
	}
	r.reopenSeconds = float64(now()-start) / 1e9
	r.env = e
	c := r.clients[0]
	c.db = e.db
	r.readBack(c, rand.New(rand.NewSource(r.o.seed^0x5eed)))
	return nil
}

// allocatedBytes is the space the database occupies: 512-byte blocks
// summed over its directory, or the simulated filesystem's non-hole bytes.
func (r *run) allocatedBytes() int64 {
	if r.mem != nil {
		return r.mem.AllocatedBytes()
	}
	var total int64
	entries, err := os.ReadDir(r.env.dir)
	if err != nil {
		return 0
	}
	for _, ent := range entries {
		var st syscall.Stat_t
		if syscall.Stat(filepath.Join(r.env.dir, ent.Name()), &st) == nil {
			total += st.Blocks * 512
		}
	}
	return total
}

// execute runs every phase; what they measured stays in r. The database is
// closed and its files deleted on every path.
func (r *run) execute() error {
	destroyed := false
	destroy := func() error {
		if r.env == nil || destroyed {
			return nil
		}
		destroyed = true
		return r.env.destroy()
	}
	defer destroy() // error paths; a second Close reports ErrClosed, which adds nothing to the phase's error
	for _, phase := range []struct {
		name string
		run  func() error
	}{{"set-up", r.setup}, {"timed", r.timed}, {"probe", r.probe}, {"reopen", r.reopen}} {
		start := now()
		if err := phase.run(); err != nil {
			return fmt.Errorf("%s of %s: %w", phase.name, r.w.name, err)
		}
		if !r.o.smoke {
			fmt.Fprintf(os.Stderr, "%s: %s took %.2f s\n", r.w.name, phase.name, float64(now()-start)/1e9)
		}
	}
	return destroy()
}
