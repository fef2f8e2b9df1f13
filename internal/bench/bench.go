// Package bench implements the paper's evaluation harness on the
// simulated-SSD substrate, and is the one place outside benchmark/ that
// adapts bolt.DB to ycsb.KV, scales a profile's options and reports
// periodic stats. Experiments come in two kinds, fixed per registry entry:
// a series whose y-axis is a count (barriers, bytes written) is measured
// in lock step on the accounting device and is exactly repeatable
// ("counts", checked in as FIGURES.json); a series whose y-axis is time
// (throughput, tail latency) runs on the real-time device and prints text.
// Absolute numbers differ from the authors' testbed; the shapes — who
// wins, by what factor, where the crossovers are — are the reproduction
// target (EXPERIMENTS.md records paper-vs-measured for each).
package bench

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/bolt-lsm/bolt"
	"github.com/bolt-lsm/bolt/internal/ycsb"
)

// Scale shrinks the paper's experiment sizes so runs finish on a laptop.
// Every byte-size constant of the stores (MemTable, SSTable, logical
// SSTable, group budget, level-1 limit, block size) is divided by SizeDiv,
// and the simulated device's *bandwidths* are divided by the same factor
// (fixed latencies keep hardware magnitudes), so the barrier-cost-to-
// transfer-time ratio — the quantity the whole paper is about — matches
// the paper's testbed. See Scale.SimDisk.
type Scale struct {
	Name string
	// LoadOps is the Load A / Load E insert count (paper: 50 M).
	LoadOps int64
	// RunOps is the per-workload operation count (paper: 10 M).
	RunOps int64
	// BigLoadFactor multiplies LoadOps for the memory-constrained Figure
	// 15/16 experiments (paper doubles the database).
	BigLoadFactor int64
	// ValueSize is the record payload (paper: 1 KB; Figure 15c: 100 B).
	ValueSize int
	// SizeDiv divides all store size constants and the barrier latency.
	SizeDiv int64
	// Threads is the client thread count (paper: 4).
	Threads int
	// TimeScale scales simulated-device sleeps (1.0 = real time).
	TimeScale float64
}

// Predefined scales.
var (
	// ScaleSmall finishes every experiment in tens of seconds; used by `go
	// test -short` and CI. Deep levels still form (≈15 MB of data against
	// a 160 KiB level-1 limit), so compaction shapes remain meaningful.
	ScaleSmall = Scale{
		Name: "small", LoadOps: 30_000, RunOps: 8_000, BigLoadFactor: 2,
		ValueSize: 512, SizeDiv: 64, Threads: 4, TimeScale: 1.0,
	}
	// ScaleMedium is the default for `bolt-bench`; one figure takes a few
	// minutes.
	ScaleMedium = Scale{
		Name: "medium", LoadOps: 60_000, RunOps: 16_000, BigLoadFactor: 2,
		ValueSize: 1024, SizeDiv: 16, Threads: 4, TimeScale: 1.0,
	}
	// ScaleLarge approaches 1/64 of the paper's data volume; budget an
	// hour for the full suite.
	ScaleLarge = Scale{
		Name: "large", LoadOps: 400_000, RunOps: 80_000, BigLoadFactor: 2,
		ValueSize: 1024, SizeDiv: 8, Threads: 4, TimeScale: 1.0,
	}
)

// ScaleByName resolves a scale flag value.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "small":
		return ScaleSmall, nil
	case "medium", "":
		return ScaleMedium, nil
	case "large":
		return ScaleLarge, nil
	default:
		return Scale{}, fmt.Errorf("bench: unknown scale %q (small|medium|large)", name)
	}
}

// div scales a paper-sized byte constant.
func (s Scale) div(bytes int64) int64 {
	v := bytes / s.SizeDiv
	if v < 4096 {
		v = 4096
	}
	return v
}

// SimDisk returns the scaled device model: fixed latencies (barrier,
// per-read, metadata op) keep their real-hardware values while bandwidths
// are divided by SizeDiv. Since every byte-size constant of the stores is
// divided by the same factor, every "transfer time vs fixed cost" ratio —
// the barrier amortization the paper studies, and the metadata-read miss
// penalty of Section 2.6 — matches the unscaled SATA testbed. Keeping the
// latencies at real (millisecond-ish) magnitudes also keeps slept
// durations above the host's sleep quantum (see simdisk.minSleep).
func (s Scale) SimDisk() bolt.SimDisk {
	return bolt.SimDisk{
		WriteBandwidth: 500 * (1 << 20) / float64(s.SizeDiv),
		ReadBandwidth:  550 * (1 << 20) / float64(s.SizeDiv),
		TimeScale:      s.TimeScale,
	}
}

// profileSSTableBytes mirrors each profile's paper-scale SSTable size.
func profileSSTableBytes(p bolt.Profile) int64 {
	switch p {
	case bolt.ProfileLevelDB, bolt.ProfileBoLT:
		return 2 << 20
	case bolt.ProfileHyperLevelDB, bolt.ProfileHyperBoLT:
		return 32 << 20
	default: // LVL64MB, RocksDB, PebblesDB
		return 64 << 20
	}
}

// Options builds scaled store options for a profile. The paper's shared
// settings: 64 MB MemTable, 10 bloom bits, compression off (we have none),
// per-store SSTable sizes, 1 MB logical SSTables, 64 MB group compaction.
func (s Scale) Options(p bolt.Profile) *bolt.Options {
	o := &bolt.Options{
		Profile:       p,
		MemTableBytes: s.div(64 << 20),
		SSTableBytes:  s.div(profileSSTableBytes(p)),
		// The paper's max_open_files. An entry count, so it does not scale:
		// the engine default of 1 000 is smaller than a scaled-down tree.
		TableCacheEntries: 32_000,
	}
	if p == bolt.ProfileBoLT || p == bolt.ProfileHyperBoLT {
		o.LogicalSSTableBytes = s.div(1 << 20)
		o.GroupCompactionBytes = s.div(64 << 20)
	}
	if p == bolt.ProfileRocksDB {
		o.L1MaxBytes = s.div(256 << 20)
	} else {
		o.L1MaxBytes = s.div(10 << 20)
	}
	o.BlockCacheBytes = s.div(8 << 20)
	// Block size scales with a 256-byte floor so blocks-per-table — and
	// with it the index-size-to-block-size ratio that drives the
	// TableCache miss penalty — stays faithful.
	o.BlockSize = int(4096 / s.SizeDiv)
	if o.BlockSize < 256 {
		o.BlockSize = 256
	}
	return o
}

// KV adapts bolt.DB to ycsb.KV.
type KV struct{ DB *bolt.DB }

var _ ycsb.KV = KV{}

func (a KV) Put(key, value []byte) error { return a.DB.Put(key, value) }

func (a KV) Get(key []byte) (bool, error) {
	_, err := a.DB.Get(key)
	if errors.Is(err, bolt.ErrNotFound) {
		return false, nil
	}
	return err == nil, err
}

func (a KV) Scan(start []byte, maxLen int) (int, error) {
	it := a.DB.NewIterator(nil)
	defer it.Close()
	n := 0
	for ok := it.SeekGE(start); ok && n < maxLen; ok = it.Next() {
		_ = it.Value()
		n++
	}
	return n, it.Err()
}

// lockStep drains all background work after every operation, so the next
// operation always meets the same tree. With one client, one serialized
// compaction worker and the accounting device (RunSequence sets all
// three) every flush and compaction pick then depends on the operation
// stream alone and the store's counters repeat exactly. Neither half
// suffices: a free-running client races the worker's picks, and a second
// worker races the first.
type lockStep struct{ KV }

func (a lockStep) idle(err error) error {
	if err != nil {
		return err
	}
	return a.DB.WaitIdle()
}

func (a lockStep) Put(key, value []byte) error { return a.idle(a.KV.Put(key, value)) }

func (a lockStep) Get(key []byte) (bool, error) {
	found, err := a.KV.Get(key)
	return found, a.idle(err)
}

func (a lockStep) Scan(start []byte, maxLen int) (int, error) {
	n, err := a.KV.Scan(start, maxLen)
	return n, a.idle(err)
}

// PhaseResult couples one workload's YCSB result with the store/device
// counter deltas it caused.
type PhaseResult struct {
	Result *ycsb.Result
	// Fsyncs, BytesWritten and StallTime are deltas over this phase.
	Fsyncs       int64
	BytesWritten int64
	StallTime    time.Duration
}

// SequenceResult is one store's full YCSB sequence (LA, A, B, C, F, D,
// fresh DB, LE, E).
type SequenceResult struct {
	Phases map[ycsb.Workload]*PhaseResult
	// FinalStats and FinalSim are the first database's final store and
	// device counters (after D, or after the last wanted workload).
	FinalStats bolt.Stats
	FinalSim   bolt.SimStats
}

// Throughput returns a phase's throughput in ops/s (0 if absent).
func (r *SequenceResult) Throughput(w ycsb.Workload) float64 {
	if p, ok := r.Phases[w]; ok {
		return p.Result.Throughput
	}
	return 0
}

// Params is the shared experiment input.
type Params struct {
	Scale Scale
	Out   io.Writer
	// StatsEvery, when positive, makes every benchmark database print one
	// engine stats line to stderr at that interval while it is open
	// (bolt-bench's -stats-every); stderr so the lines interleave with,
	// but do not corrupt, the figure data on Out.
	StatsEvery time.Duration
	// lockStep selects the counting recipe; the count experiments set it,
	// nothing else does.
	lockStep bool
}

func (p Params) printf(format string, args ...any) {
	fmt.Fprintf(p.Out, format, args...)
}

// RunSequence executes the paper's YCSB order against a fresh simulated
// store. Workloads may be restricted via only (nil = all): a group is run
// up to its last wanted workload (preceding workloads still execute so the
// store state matches the paper's submission order) and skipped entirely
// when it contains none. In lock step (count experiments) one client drives
// the store, every operation waits for it to go idle, compactions are
// serialized onto one worker and the device only accounts (no sleeps).
func RunSequence(p Params, o *bolt.Options, dist ycsb.Distribution, only map[ycsb.Workload]bool) (*SequenceResult, error) {
	s := p.Scale
	disk, opts, threads := s.SimDisk(), *o, s.Threads
	if p.lockStep {
		disk.TimeScale, opts.MaxBackgroundCompactions, threads = -1, -1, 1
	}
	out := &SequenceResult{Phases: map[ycsb.Workload]*PhaseResult{}}
	want := func(w ycsb.Workload) bool { return only == nil || only[w] }

	for groupIdx, fullGroup := range ycsb.Sequence() {
		lastWanted := -1
		for i, w := range fullGroup {
			if want(w) {
				lastWanted = i
			}
		}
		if lastWanted < 0 {
			continue
		}
		group := fullGroup[:lastWanted+1]
		db, err := bolt.OpenSim(&opts, disk)
		if err != nil {
			return nil, err
		}
		stopStats := WatchStats(db, o.Profile.String(), p.StatsEvery, os.Stderr)
		var kv ycsb.KV = KV{db}
		if p.lockStep {
			kv = lockStep{KV{db}}
		}
		records := int64(0)
		prev := db.Stats()
		for _, w := range group {
			cfg := ycsb.RunConfig{
				Workload:     w,
				Distribution: dist,
				RecordCount:  records,
				Threads:      threads,
				ValueSize:    s.ValueSize,
				Seed:         int64(1000*groupIdx) + int64(w),
			}
			if w.IsLoad() {
				cfg.Ops = s.LoadOps
			} else {
				cfg.Ops = s.RunOps
			}
			res, err := ycsb.Run(kv, cfg)
			if err != nil {
				stopStats()
				_ = db.Close() //boltvet:ignore errflow -- best-effort close on the error path; the run error is returned
				return nil, fmt.Errorf("bench: %s on %s: %w", w, o.Profile, err)
			}
			records += res.InsertedRecords
			cur := db.Stats()
			if want(w) {
				out.Phases[w] = &PhaseResult{
					Result:       res,
					Fsyncs:       cur.Fsyncs - prev.Fsyncs,
					BytesWritten: cur.BytesWritten - prev.BytesWritten,
					StallTime:    cur.StallTime - prev.StallTime,
				}
			}
			prev = cur
		}
		if groupIdx == 0 {
			out.FinalStats = db.Stats()
			out.FinalSim, _ = db.SimStats()
		}
		stopStats()
		if err := db.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Experiment is one figure reproduction. Whether it counts in lock step or
// times the real-time device is fixed by its Run function, never by a flag.
type Experiment struct {
	ID    string
	Title string
	Run   func(Params) error
}

// Experiments lists every reproduction: the count series first, then the
// timed figures in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"counts", "Fig 4a, 11, 12, 13 (Load A): barriers and bytes written, counted in lock step (JSON; FIGURES.json)", Counts},
		{"fig4", "Fig 4b: insertion tail latency vs SSTable size (stock LevelDB, Load A)", Fig4b},
		{"fig6", "Fig 6: TableCache eviction overhead (point-query latency, 2 MB vs 64 MB SSTables)", Fig6},
		{"fig12a", "Fig 12a: BoLT ablation in LevelDB (+LS/+GC/+STL/+FC), throughput", Fig12a},
		{"fig12b", "Fig 12b: BoLT ablation in HyperLevelDB, throughput", Fig12b},
		{"fig13", "Fig 13: YCSB throughput, all stores, zipfian & uniform", Fig13},
		{"fig14", "Fig 14: tail latency of writes (Load A) and reads (C)", Fig14},
		{"fig15", "Fig 15: BoLT vs RocksDB, memory-constrained large DB", Fig15},
		{"fig16", "Fig 16: tail latency CDFs per workload, BoLT vs RocksDB", Fig16},
		{"ext-rocksbolt", "EXTENSION: BoLT elements inside the RocksDB profile (paper future work)", ExtRocksBoLT},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
