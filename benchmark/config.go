package main

import (
	"time"

	"github.com/bolt-lsm/bolt/internal/core"
	"github.com/bolt-lsm/bolt/internal/simdisk"
	"github.com/bolt-lsm/bolt/internal/ycsb"
)

// The engine under test is the BoLT profile with every paper-scale byte
// constant divided by sizeDiv, exactly as internal/bench.Scale divides it.
// The table is spelled out here so both sides of any comparison run the
// same engine; nothing is derived from the host (NumCPU, GOMAXPROCS).
const sizeDiv = 16

// engineConfig returns the one engine configuration every workload runs.
// Only the block-cache size and the value-separation threshold vary by
// workload, because those two are the workload's subject.
func engineConfig(w *workload) core.Config {
	return core.Config{
		MemTableBytes:        (64 << 20) / sizeDiv, // 4 MiB
		MaxSSTableBytes:      (2 << 20) / sizeDiv,  // 128 KiB
		LogicalSSTableBytes:  (1 << 20) / sizeDiv,  // 64 KiB
		GroupCompactionBytes: (64 << 20) / sizeDiv, // 4 MiB
		L1MaxBytes:           (10 << 20) / sizeDiv, // 640 KiB
		LevelMultiplier:      10,
		BlockSize:            4096,
		BloomBitsPerKey:      10,
		EntryPadding:         88,
		L0CompactionTrigger:  4,
		L0SlowdownTrigger:    8,
		L0StopTrigger:        12,
		SettledCompaction:    true,
		SeekCompaction:       true,
		FDCache:              true,
		// The paper's max_open_files. The engine default of 1000 is fewer
		// than the tables of a 1/16-scale tree (64 KiB each), and would
		// turn every workload into a table-cache-miss workload.
		TableCacheEntries: 32_000,
		CacheShards:       0, // auto
		// Pinned: the engine default is min(4, NumCPU), which would make
		// the tree's shape depend on the host.
		MaxBackgroundCompactions: 2,
		// Flush policy, the same on every run: WAL writes are not synced
		// per commit (the paper's and LevelDB's default); tables and the
		// MANIFEST are fsynced by every flush and compaction.
		SyncWAL: false,

		BlockCacheBytes: w.blockCache,
		ValueThreshold:  w.valueThreshold,
	}
}

// ssdProfile is the simulated SATA SSD of load-ssd: fixed latencies keep
// hardware magnitudes, bandwidths are divided by sizeDiv like the store's
// byte constants, and sleeps run in real time.
func ssdProfile() simdisk.Profile {
	p := simdisk.DefaultProfile()
	p.BarrierLatency = 3 * time.Millisecond
	p.WriteBandwidth = 500 * (1 << 20) / sizeDiv
	p.ReadBandwidth = 550 * (1 << 20) / sizeDiv
	p.TimeScale = 1
	return p
}

// Modelled device constants of simdisk.model_s_per_mop on OS-backed runs.
const (
	modelBarrierSeconds = 0.003
	modelWriteBandwidth = 500 * (1 << 20)
)

// workload is one row of the benchmark's workload table. Shapes are fixed;
// only --seconds (and --smoke's divisor) change how much of one is run.
type workload struct {
	name string
	why  string

	mix  ycsb.Workload     // operation mix of the timed phase
	dist ycsb.Distribution // request distribution of the timed phase

	preload        int64 // records loaded during set-up
	valueSize      int
	valueThreshold int
	blockCache     int64
	clients        int
	// settle makes set-up end with a full manual compaction and warm-up
	// reads, so the timed phase starts on a settled, cached tree.
	settle bool
	warmup int64
	simSSD bool
}

// defaultBlockCache is LevelDB's 8 MB block cache, scaled like the rest.
const defaultBlockCache = (8 << 20) / sizeDiv // 512 KiB

var workloads = []workload{
	{
		name: "load",
		why:  "Insert-only on a fast device: batch, WAL, memtable, flush, group and settled compaction, MANIFEST; CPU-path write cost shows here, barrier cost does not.",
		mix:  ycsb.LoadA, valueSize: 256, blockCache: defaultBlockCache, clients: 1,
	},
	{
		name: "load-ssd",
		why:  "The same inserts on a simulated SATA SSD in real time, so barriers and governor stalls dominate; a barrier or scheduling change moves this and not load.",
		mix:  ycsb.LoadA, valueSize: 256, blockCache: defaultBlockCache, clients: 1, simSSD: true,
	},
	{
		name: "read-hot",
		why:  "Zipfian point reads by two clients on a settled tree that fits the block cache: the pure CPU read path, no background work, no device reads.",
		mix:  ycsb.WorkloadC, dist: ycsb.Zipfian, preload: 400_000, valueSize: 256,
		blockCache: 256 << 20, clients: 2, settle: true, warmup: 200_000,
	},
	{
		name: "mixed-cold",
		why:  "Half reads, half updates on uniform keys with a cache 200 times smaller than the data: cache misses, several tables probed per read, flush and compaction beside the reads.",
		mix:  ycsb.WorkloadA, dist: ycsb.Uniform, preload: 400_000, valueSize: 256,
		blockCache: 512 << 10, clients: 1,
	},
	{
		name: "scan-hot",
		why:  "Short range scans with few inserts on a settled, cached tree: merging iterator, block iterators and the key/value copy at the API boundary, not I/O.",
		mix:  ycsb.WorkloadE, dist: ycsb.Zipfian, preload: 400_000, valueSize: 256,
		blockCache: 256 << 20, clients: 1, settle: true, warmup: 200_000,
	},
	{
		name: "large-value",
		why:  "Half reads, half updates of 4 KiB values kept in the value log: vlog append, pointer dereference and value GC do the work and table compaction does little.",
		mix:  ycsb.WorkloadA, dist: ycsb.Zipfian, preload: 40_000, valueSize: 4096,
		valueThreshold: 1024, blockCache: defaultBlockCache, clients: 1,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// The fixed post-drain probe every workload ends with: how many sampled
// keys are read back (before and again after the reopen) and how many
// scans start from sampled keys.
const (
	probeReads = 10_000
	probeScans = 1_000
)

// setupBudget is how long a run keeps repeating set-up (at least once, at
// most setupMaxReps times) before it takes the median as setup_s: a
// millisecond set-up repeats many times, a multi-second one runs once.
const (
	setupBudget  = time.Second
	setupMaxReps = 1000
)
