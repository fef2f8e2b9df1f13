package bench

import (
	"fmt"
	"os"
	"time"

	"github.com/bolt-lsm/bolt"
	"github.com/bolt-lsm/bolt/internal/histogram"
	"github.com/bolt-lsm/bolt/internal/ycsb"
)

// tailPercentiles are the percentiles printed for tail-latency figures.
var tailPercentiles = []float64{50, 90, 95, 97, 98, 99, 99.5, 99.85, 99.9, 99.99}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func fmtLatencyRow(h *histogram.Histogram) string {
	row := ""
	for _, p := range tailPercentiles {
		row += fmt.Sprintf(" %10v", h.Quantile(p/100).Round(time.Microsecond))
	}
	return row
}

func latencyHeader() string {
	row := ""
	for _, p := range tailPercentiles {
		row += fmt.Sprintf(" %9.2f%%", p)
	}
	return row
}

// loadAOnly restricts a sequence to the Load A phase.
var loadAOnly = map[ycsb.Workload]bool{ycsb.LoadA: true}

// sstableSweepMB is Figure 4's x-axis: stock LevelDB's SSTable size in MB
// at paper scale.
var sstableSweepMB = []int64{1, 2, 4, 8, 16, 32, 64}

// Fig4b sweeps the SSTable size of stock LevelDB under YCSB Load A and
// reports the insertion tail latency. Expected shape: tails improve with
// size. (Fig 4a, the fsync count of the same sweep, is a count series.)
func Fig4b(p Params) error {
	p.printf("# Fig 4b — stock LevelDB, Load A (%d ops x %d B), SSTable size sweep [scale=%s]\n",
		p.Scale.LoadOps, p.Scale.ValueSize, p.Scale.Name)
	p.printf("%-12s %12s %12s%s\n", "sstable", "ops/s", "stall", latencyHeader())
	for _, mb := range sstableSweepMB {
		o := p.Scale.Options(bolt.ProfileLevelDB)
		o.SSTableBytes = p.Scale.div(mb << 20)
		res, err := RunSequence(p, o, ycsb.Zipfian, loadAOnly)
		if err != nil {
			return err
		}
		la := res.Phases[ycsb.LoadA]
		p.printf("%-12s %12.0f %12v%s\n",
			fmt.Sprintf("%dMB/%d", mb, p.Scale.SizeDiv),
			la.Result.Throughput, la.StallTime.Round(time.Millisecond),
			fmtLatencyRow(la.Result.Write))
	}
	return nil
}

// Fig6 measures the TableCache eviction overhead: point-query latency with
// 2 MB vs 64 MB SSTables at an identical TableCache entry budget (RocksDB
// profile). Expected shape: the 64 MB configuration has far higher tail
// latency because each TableCache miss reads a ~32x larger index block.
func Fig6(p Params) error {
	loadOps := p.Scale.LoadOps * p.Scale.BigLoadFactor
	p.printf("# Fig 6 — RocksDB profile, %d-record DB, %d point queries, fixed TableCache entries [scale=%s]\n",
		loadOps, p.Scale.RunOps, p.Scale.Name)

	// With this budget the 64 MB configuration cannot hold its (fewer,
	// larger) tables either: both configurations miss, and the miss
	// penalty difference is what the figure shows.
	cacheEntries := p.Scale.constrainedTableCache(loadOps, p.Scale.ValueSize)

	p.printf("%-12s %10s %10s %12s %14s%s\n",
		"sstable", "tc-hits", "tc-miss", "meta-read", "reads/s", latencyHeader())
	for _, mb := range []int64{2, 64} {
		o := p.Scale.Options(bolt.ProfileRocksDB)
		o.SSTableBytes = p.Scale.div(mb << 20)
		o.TableCacheEntries = cacheEntries
		db, err := bolt.OpenSim(o, p.Scale.SimDisk())
		if err != nil {
			return err
		}
		stopStats := WatchStats(db, fmt.Sprintf("fig6-%dMB", mb), p.StatsEvery, os.Stderr)
		kv := KV{db}
		if _, err := ycsb.Run(kv, ycsb.RunConfig{
			Workload: ycsb.LoadA, Ops: loadOps,
			Threads: p.Scale.Threads, ValueSize: p.Scale.ValueSize, Seed: 1,
		}); err != nil {
			stopStats()
			_ = db.Close() //boltvet:ignore errflow -- best-effort close on the error path; the run error is returned
			return err
		}
		// Separate the population's compaction debt from the read
		// measurement (the paper submits its 1M point queries against a
		// settled database).
		if err := db.WaitIdle(); err != nil {
			stopStats()
			_ = db.Close() //boltvet:ignore errflow -- best-effort close on the error path; the run error is returned
			return err
		}
		before := db.Stats()
		res, err := ycsb.Run(kv, ycsb.RunConfig{
			Workload: ycsb.WorkloadC, Distribution: ycsb.Uniform,
			RecordCount: loadOps, Ops: p.Scale.RunOps,
			Threads: p.Scale.Threads, ValueSize: p.Scale.ValueSize, Seed: 2,
		})
		if err != nil {
			stopStats()
			_ = db.Close() //boltvet:ignore errflow -- best-effort close on the error path; the run error is returned
			return err
		}
		after := db.Stats()
		p.printf("%-12s %10d %10d %12s %14.0f%s\n",
			fmt.Sprintf("%dMB/%d", mb, p.Scale.SizeDiv),
			after.TableCacheHits-before.TableCacheHits,
			after.TableCacheMisses-before.TableCacheMisses,
			fmtBytes(after.MetaBytesRead-before.MetaBytesRead),
			res.Throughput, fmtLatencyRow(res.Read))
		stopStats()
		if err := db.Close(); err != nil {
			return err
		}
	}
	return nil
}

// ablationVariant names one Figure 12 configuration.
type ablationVariant struct {
	label string
	opts  func(Scale) *bolt.Options
}

func ablations(base, full bolt.Profile) []ablationVariant {
	return []ablationVariant{
		{"stock", func(s Scale) *bolt.Options { return s.Options(base) }},
		{"+LS", func(s Scale) *bolt.Options {
			o := s.Options(full)
			o.DisableGroupCompaction = true
			o.DisableSettled = true
			o.DisableFDCache = true
			return o
		}},
		{"+GC", func(s Scale) *bolt.Options {
			o := s.Options(full)
			o.DisableSettled = true
			o.DisableFDCache = true
			return o
		}},
		{"+STL", func(s Scale) *bolt.Options {
			o := s.Options(full)
			o.DisableFDCache = true
			return o
		}},
		{"+FC", func(s Scale) *bolt.Options { return s.Options(full) }},
	}
}

// figWorkloads is the paper's reporting order.
var figWorkloads = []ycsb.Workload{
	ycsb.LoadA, ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC,
	ycsb.WorkloadF, ycsb.WorkloadD, ycsb.LoadE, ycsb.WorkloadE,
}

func printThroughputHeader(p Params) {
	p.printf("%-14s", "config")
	for _, w := range figWorkloads {
		p.printf(" %9s", w)
	}
	p.printf(" %12s\n", "written(LA)")
}

func printThroughputRow(p Params, label string, res *SequenceResult) {
	p.printf("%-14s", label)
	for _, w := range figWorkloads {
		p.printf(" %9.0f", res.Throughput(w))
	}
	written := int64(0)
	if la, ok := res.Phases[ycsb.LoadA]; ok {
		written = la.BytesWritten
	}
	p.printf(" %12s\n", fmtBytes(written))
}

func runAblation(p Params, title string, base, full bolt.Profile) error {
	p.printf("# %s — YCSB zipfian throughput (ops/s), LA/LE=%d ops, runs=%d ops [scale=%s]\n",
		title, p.Scale.LoadOps, p.Scale.RunOps, p.Scale.Name)
	printThroughputHeader(p)
	for _, v := range ablations(base, full) {
		res, err := RunSequence(p, v.opts(p.Scale), ycsb.Zipfian, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", v.label, err)
		}
		printThroughputRow(p, v.label, res)
	}
	return nil
}

// Fig12a quantifies each BoLT element over the LevelDB base. Expected
// shape: +LS ≈ stock, +GC a large write-throughput jump, +STL reduces the
// bytes written, +FC adds further gains; reads improve throughout.
func Fig12a(p Params) error {
	return runAblation(p, "Fig 12a — BoLT designs in LevelDB", bolt.ProfileLevelDB, bolt.ProfileBoLT)
}

// Fig12b quantifies each BoLT element over the HyperLevelDB base. Expected
// shape: +LS below stock (fsync-heavy without grouping), +GC and beyond
// above stock.
func Fig12b(p Params) error {
	return runAblation(p, "Fig 12b — BoLT designs in HyperLevelDB", bolt.ProfileHyperLevelDB, bolt.ProfileHyperBoLT)
}

// fig13Profiles is the paper's store lineup.
var fig13Profiles = []bolt.Profile{
	bolt.ProfileLevelDB, bolt.ProfileLevelDB64MB, bolt.ProfileHyperLevelDB,
	bolt.ProfilePebblesDB, bolt.ProfileRocksDB, bolt.ProfileBoLT, bolt.ProfileHyperBoLT,
}

// Fig13 compares all seven stores across the YCSB suite under zipfian and
// uniform distributions. Expected shape: write-only (LA/LE) ranking
// Pebbles > HyperBoLT > Hyper > BoLT > LVL64 > LevelDB; BoLT/HyperBoLT win
// most mixed and read workloads.
func Fig13(p Params) error {
	for _, dist := range []ycsb.Distribution{ycsb.Zipfian, ycsb.Uniform} {
		p.printf("# Fig 13 (%s) — YCSB throughput (ops/s), LA/LE=%d ops, runs=%d ops [scale=%s]\n",
			dist, p.Scale.LoadOps, p.Scale.RunOps, p.Scale.Name)
		printThroughputHeader(p)
		for _, prof := range fig13Profiles {
			res, err := RunSequence(p, p.Scale.Options(prof), dist, nil)
			if err != nil {
				return fmt.Errorf("%v/%v: %w", prof, dist, err)
			}
			printThroughputRow(p, prof.String(), res)
		}
		p.printf("\n")
	}
	return nil
}

// Fig14 reports insertion (Load A) and read (workload C) tail latencies
// per store. Expected shape: Hyper-family lowest insertion tails;
// RocksDB's read tail spikes around p98 from TableCache miss penalties.
func Fig14(p Params) error {
	only := map[ycsb.Workload]bool{ycsb.LoadA: true, ycsb.WorkloadC: true}
	type row struct {
		label string
		la, c *histogram.Histogram
	}
	var rows []row
	for _, prof := range fig13Profiles {
		res, err := RunSequence(p, p.Scale.Options(prof), ycsb.Zipfian, only)
		if err != nil {
			return err
		}
		rows = append(rows, row{
			label: prof.String(),
			la:    res.Phases[ycsb.LoadA].Result.Write,
			c:     res.Phases[ycsb.WorkloadC].Result.Read,
		})
	}
	p.printf("# Fig 14a — insertion latency percentiles, Load A [scale=%s]\n%-14s%s\n",
		p.Scale.Name, "store", latencyHeader())
	for _, r := range rows {
		p.printf("%-14s%s\n", r.label, fmtLatencyRow(r.la))
	}
	p.printf("\n# Fig 14b — read latency percentiles, workload C\n%-14s%s\n", "store", latencyHeader())
	for _, r := range rows {
		p.printf("%-14s%s\n", r.label, fmtLatencyRow(r.c))
	}
	return nil
}

// fig15Options returns the memory-constrained, parameter-matched store
// options of Figures 15/16: BoLT adopts RocksDB's TableCache budget,
// governors (20/36), and level-1 limit, per the paper's fairness setup.
func fig15Options(s Scale, prof bolt.Profile, valueSize int, records int64) *bolt.Options {
	o := s.Options(prof)
	o.L1MaxBytes = s.div(256 << 20)
	o.L0SlowdownTrigger = 20
	o.L0StopTrigger = 36
	o.TableCacheEntries = s.constrainedTableCache(records, valueSize)
	return o
}

// constrainedTableCache is the deliberate exception to Scale.Options'
// 32 000 entries: a TableCache that holds half of the database's tables
// even at 64 MB SSTables, modelling the paper's memory-constrained host
// (Figures 6, 15 and 16).
func (s Scale) constrainedTableCache(records int64, valueSize int) int {
	dbBytes := records * int64(valueSize+120)
	return int(dbBytes/s.div(64<<20))/2 + 2
}

type fig15Config struct {
	label     string
	dist      ycsb.Distribution
	valueSize int
	loadMul   int64
}

func fig15Configs(s Scale) []fig15Config {
	return []fig15Config{
		{"1KB-zipfian", ycsb.Zipfian, s.ValueSize, s.BigLoadFactor},
		{"1KB-uniform", ycsb.Uniform, s.ValueSize, s.BigLoadFactor},
		{"100B-zipfian", ycsb.Zipfian, 100, s.BigLoadFactor * 2},
	}
}

// Fig15 compares BoLT against RocksDB on a database too large for the
// caches. Expected shape: BoLT wins clearly at 1 KB records; RocksDB wins
// the write-only loads at 100-byte records (record-format efficiency) and
// scans (E), while BoLT holds reads.
func Fig15(p Params) error {
	scale := p.Scale
	for _, cfg := range fig15Configs(scale) {
		s := scale
		s.ValueSize = cfg.valueSize
		s.LoadOps = scale.LoadOps * cfg.loadMul
		records := s.LoadOps
		p.printf("# Fig 15 (%s) — BoLT vs RocksDB, load=%d x %d B [scale=%s]\n",
			cfg.label, s.LoadOps, s.ValueSize, s.Name)
		printThroughputHeader(p)
		p.Scale = s
		for _, prof := range []bolt.Profile{bolt.ProfileBoLT, bolt.ProfileRocksDB} {
			res, err := RunSequence(p, fig15Options(s, prof, cfg.valueSize, records), cfg.dist, nil)
			if err != nil {
				return fmt.Errorf("fig15 %s %v: %w", cfg.label, prof, err)
			}
			printThroughputRow(p, prof.String(), res)
		}
		p.printf("\n")
	}
	return nil
}

// Fig16 prints per-workload latency percentiles for BoLT and RocksDB at
// the Figure 15 (1 KB zipfian) configuration. Expected shape: RocksDB
// shows the higher tails on every workload except E (scans).
func Fig16(p Params) error {
	p.Scale.LoadOps *= p.Scale.BigLoadFactor
	s := p.Scale
	runs := []ycsb.Workload{
		ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC,
		ycsb.WorkloadD, ycsb.WorkloadE, ycsb.WorkloadF,
	}
	results := map[bolt.Profile]*SequenceResult{}
	for _, prof := range []bolt.Profile{bolt.ProfileBoLT, bolt.ProfileRocksDB} {
		res, err := RunSequence(p, fig15Options(s, prof, s.ValueSize, s.LoadOps), ycsb.Zipfian, nil)
		if err != nil {
			return err
		}
		results[prof] = res
	}
	p.printf("# Fig 16 — per-workload latency percentiles, BoLT vs RocksDB (1KB zipfian, big DB) [scale=%s]\n", s.Name)
	for _, w := range runs {
		p.printf("workload %s\n%-14s%s\n", w, "store", latencyHeader())
		for _, prof := range []bolt.Profile{bolt.ProfileBoLT, bolt.ProfileRocksDB} {
			ph, ok := results[prof].Phases[w]
			if !ok {
				continue
			}
			p.printf("%-14s%s\n", prof.String(), fmtLatencyRow(ph.Result.Overall))
		}
		p.printf("\n")
	}
	return nil
}
