// Package core implements the LSM-tree engine. One engine serves every
// system in the paper's evaluation — LevelDB, HyperLevelDB, RocksDB,
// PebblesDB, BoLT, and HyperBoLT — selected through Config. The BoLT
// elements (compaction files, logical SSTables, group compaction, settled
// compaction, the FD cache) are individually toggleable so the Figure 12
// ablation (+LS / +GC / +STL / +FC) is exactly reproducible.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/bolt-lsm/bolt/internal/events"
)

// Config parameterizes the engine. ApplyDefaults fills zero fields.
type Config struct {
	// --- Sizing ---

	// MemTableBytes is the write-buffer size (the paper uses 64 MB).
	MemTableBytes int64
	// MaxSSTableBytes is the physical SSTable target size in legacy mode
	// (2 MB LevelDB, 64 MB RocksDB) and the upper bound of one output in
	// variable-size profiles.
	MaxSSTableBytes int64
	// LogicalSSTableBytes enables BoLT's compaction files: when positive,
	// every flush and compaction writes one physical file partitioned into
	// logical SSTables of this size (the paper uses 1 MB), synced with a
	// single barrier. Zero selects legacy one-file-per-SSTable layout.
	LogicalSSTableBytes int64
	// BlockSize is the data block size (4 KiB).
	BlockSize int
	// EntryPadding models a less compact record format (see DESIGN.md —
	// used to reproduce the LevelDB-vs-RocksDB format-efficiency gap of
	// Figure 15c).
	EntryPadding int
	// BloomBitsPerKey configures table filters (paper: 10).
	BloomBitsPerKey int

	// --- Level shape & governors ---

	// L0CompactionTrigger is the L0 file count that schedules compaction.
	L0CompactionTrigger int
	// L0SlowdownTrigger makes writers sleep 1 ms per write above this L0
	// file count; 0 disables (HyperLevelDB removes the governor).
	L0SlowdownTrigger int
	// L0StopTrigger blocks writers above this L0 file count; 0 disables.
	L0StopTrigger int
	// L1MaxBytes is the level-1 size limit (10 MB in LevelDB, 256 MB in
	// RocksDB); deeper levels grow by LevelMultiplier.
	L1MaxBytes int64
	// LevelMultiplier is the per-level growth factor (10).
	LevelMultiplier float64

	// --- BoLT elements ---

	// GroupCompactionBytes is the victim byte budget per compaction (+GC;
	// the paper settles on 64 MB). Zero selects single-victim compactions.
	GroupCompactionBytes int64
	// SettledCompaction selects minimum-overlap victims and promotes
	// non-overlapping ones without rewrite (+STL).
	SettledCompaction bool
	// FDCache caches physical-file descriptors across tables (+FC).
	FDCache bool

	// --- Baseline behaviours ---

	// Fragmented enables PebblesDB-style FLSM levels (overlapping tables
	// within a level, guard-partitioned compaction outputs, no next-level
	// rewrite).
	Fragmented bool
	// GuardBaseBits/GuardShiftBits control guard density (see compaction).
	GuardBaseBits  int
	GuardShiftBits int
	// ConcurrentWriters lets each queued writer insert its own batch into
	// the memtable in parallel after the leader logs the group (the
	// HyperLevelDB write path); otherwise the leader inserts everything.
	ConcurrentWriters bool
	// SeekCompaction enables LevelDB's read-triggered compaction.
	SeekCompaction bool
	// SeparateFlushThread gives memtable flushes a lane of their own, one
	// worker beside the compaction pool (RocksDB's flush/compaction thread
	// split); otherwise the pool drains flushes first.
	SeparateFlushThread bool
	// MaxBackgroundCompactions bounds the compaction worker pool: up to
	// this many compactions with disjoint inputs and non-overlapping
	// output ranges run concurrently (in unified mode the pool also
	// drains flushes). Zero selects the default min(4, NumCPU); negative
	// selects 1 — the serialized pre-scheduler behaviour.
	MaxBackgroundCompactions int

	// --- Caches ---

	// TableCacheEntries is the TableCache capacity in tables
	// (max_open_files semantics; paper experiments use 32,000).
	TableCacheEntries int
	// BlockCacheBytes is the BlockCache capacity (8 MB LevelDB default).
	BlockCacheBytes int64
	// CacheShards is the shard count for the block/table/fd caches: keys
	// hash-partition across this many independent LRU shards, each with
	// its own lock and stats. Zero auto-sizes to the next power of two
	// >= GOMAXPROCS (capped at 64); 1 restores the single-lock layout
	// (the crash/bit-rot harnesses pin it for determinism); other values
	// round up to a power of two. Negative values are clamped to auto
	// with a warning event.
	CacheShards int

	// --- Key-value separation ---

	// ValueThreshold enables WAL-time key-value separation: a Put whose
	// value is at least this many bytes has the value appended to the value
	// log during commit (before the WAL write, inside the same barrier
	// window) and a pointer entry written to the tree in its place.
	// Compactions then move pointers, not payloads. Zero (the default)
	// disables separation entirely.
	ValueThreshold int
	// VLogSegmentBytes rotates the active value-log segment once it grows
	// past this size (default 16 MB). Sealed segments are GC candidates.
	VLogSegmentBytes int64
	// VLogGCGarbageRatio is the dead-byte fraction (of a sealed segment's
	// uncollected tail) at which value GC picks it (default 0.5).
	VLogGCGarbageRatio float64
	// VLogGCChunkBytes is how many segment bytes one GC pass scans before
	// committing its progress (default 4 MB); smaller chunks bound the
	// re-put batch and the crash-redo window.
	VLogGCChunkBytes int64

	// --- Durability ---

	// SyncWAL syncs the log on every commit. The paper (like the YCSB
	// default) runs with asynchronous WAL writes.
	SyncWAL bool

	// --- Robustness ---

	// BgRetryLimit is how many times a failed flush or compaction is
	// retried (with capped exponential backoff) when its error classifies
	// as transient, before the engine degrades to read-only mode. Zero
	// selects the default (5); negative disables retries entirely.
	BgRetryLimit int
	// BgRetryBaseDelay is the first retry's backoff delay (default 2ms);
	// each subsequent retry doubles it.
	BgRetryBaseDelay time.Duration
	// BgRetryMaxDelay caps the exponential backoff (default 250ms).
	BgRetryMaxDelay time.Duration
	// ScrubInterval enables the background integrity scrubber: every
	// interval, a pass walks all live tables and verifies every block
	// checksum, quarantining corrupt tables for salvage. Zero disables the
	// scrubber (the default — scrubs cost read bandwidth).
	ScrubInterval time.Duration
	// ScrubBytesPerSec throttles scrub read bandwidth. Zero selects the
	// default (32 MB/s); negative disables throttling.
	ScrubBytesPerSec int64

	// --- Observability ---

	// EventLogSize is the capacity of the in-memory ring buffer retaining
	// recent engine events (flushes, compactions, stalls, WAL rotations,
	// background-error handling). Zero selects the default (512).
	EventLogSize int
	// EventListener, when non-nil, receives every engine event
	// synchronously as it is emitted. The callback runs with no engine
	// lock held — it may call back into the DB — but it runs on the
	// emitting goroutine, so a slow listener slows background work.
	EventListener events.Listener

	// --- Testing hooks ---

	// VerifyInvariants re-checks version invariants after every flush and
	// compaction. Tests enable it; benchmarks leave it off.
	VerifyInvariants bool
}

// ApplyDefaults fills unset fields with LevelDB-like defaults.
func (c *Config) ApplyDefaults() {
	if c.MemTableBytes <= 0 {
		c.MemTableBytes = 4 << 20
	}
	if c.MaxSSTableBytes <= 0 {
		c.MaxSSTableBytes = 2 << 20
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 4096
	}
	if c.BloomBitsPerKey == 0 {
		c.BloomBitsPerKey = 10
	}
	if c.L0CompactionTrigger <= 0 {
		c.L0CompactionTrigger = 4
	}
	if c.L1MaxBytes <= 0 {
		c.L1MaxBytes = 10 << 20
	}
	if c.LevelMultiplier <= 0 {
		c.LevelMultiplier = 10
	}
	if c.GuardBaseBits == 0 {
		c.GuardBaseBits = 14
	}
	if c.GuardShiftBits == 0 {
		c.GuardShiftBits = 3
	}
	if c.TableCacheEntries <= 0 {
		c.TableCacheEntries = 1000
	}
	if c.BlockCacheBytes <= 0 {
		c.BlockCacheBytes = 8 << 20
	}
	if c.CacheShards < 0 {
		c.CacheShards = 0
	}
	switch {
	case c.MaxBackgroundCompactions == 0:
		n := runtime.NumCPU()
		if n > 4 {
			n = 4
		}
		if n < 1 {
			n = 1
		}
		c.MaxBackgroundCompactions = n
	case c.MaxBackgroundCompactions < 0:
		c.MaxBackgroundCompactions = 1
	}
	switch {
	case c.BgRetryLimit == 0:
		c.BgRetryLimit = 5
	case c.BgRetryLimit < 0:
		c.BgRetryLimit = 0
	}
	if c.BgRetryBaseDelay <= 0 {
		c.BgRetryBaseDelay = 2 * time.Millisecond
	}
	if c.BgRetryMaxDelay <= 0 {
		c.BgRetryMaxDelay = 250 * time.Millisecond
	}
	switch {
	case c.ScrubBytesPerSec == 0:
		c.ScrubBytesPerSec = 32 << 20
	case c.ScrubBytesPerSec < 0:
		c.ScrubBytesPerSec = 0
	}
	if c.EventLogSize <= 0 {
		c.EventLogSize = 512
	}
	if c.VLogSegmentBytes <= 0 {
		c.VLogSegmentBytes = 16 << 20
	}
	if c.VLogGCGarbageRatio <= 0 {
		c.VLogGCGarbageRatio = 0.5
	}
	if c.VLogGCChunkBytes <= 0 {
		c.VLogGCChunkBytes = 4 << 20
	}
}

// clampWarnings describes the invalid (negative) cache-sizing knobs that
// ApplyDefaults is about to clamp, one string per knob. Zero values stay
// silent — zero is the documented "use the default" sentinel — but a
// negative capacity or shard count is a caller bug that would otherwise
// vanish into the defaults, so Open emits one warning event per entry.
func (c *Config) clampWarnings() []string {
	var w []string
	if c.TableCacheEntries < 0 {
		w = append(w, fmt.Sprintf("TableCacheEntries=%d clamped to default", c.TableCacheEntries))
	}
	if c.BlockCacheBytes < 0 {
		w = append(w, fmt.Sprintf("BlockCacheBytes=%d clamped to default", c.BlockCacheBytes))
	}
	if c.CacheShards < 0 {
		w = append(w, fmt.Sprintf("CacheShards=%d clamped to auto", c.CacheShards))
	}
	return w
}

// Validate rejects inconsistent configurations.
func (c *Config) Validate() error {
	if c.L0StopTrigger > 0 && c.L0SlowdownTrigger > c.L0StopTrigger {
		return fmt.Errorf("core: slowdown trigger %d above stop trigger %d",
			c.L0SlowdownTrigger, c.L0StopTrigger)
	}
	if c.LogicalSSTableBytes < 0 || c.GroupCompactionBytes < 0 {
		return errors.New("core: negative size configuration")
	}
	if c.Fragmented && c.LogicalSSTableBytes > 0 {
		return errors.New("core: fragmented levels and compaction files are mutually exclusive profiles")
	}
	if c.SettledCompaction && c.LogicalSSTableBytes == 0 {
		return errors.New("core: settled compaction requires logical SSTables")
	}
	if c.BgRetryMaxDelay < c.BgRetryBaseDelay {
		return fmt.Errorf("core: retry delay cap %v below base %v",
			c.BgRetryMaxDelay, c.BgRetryBaseDelay)
	}
	if c.ScrubInterval < 0 {
		return errors.New("core: negative scrub interval")
	}
	if c.ValueThreshold < 0 {
		return errors.New("core: negative value threshold")
	}
	if c.VLogGCGarbageRatio > 1 {
		return fmt.Errorf("core: value-GC garbage ratio %v above 1", c.VLogGCGarbageRatio)
	}
	return nil
}

// valueSeparation reports whether the value log is in use for new writes.
func (c *Config) valueSeparation() bool { return c.ValueThreshold > 0 }

// outputTableBytes returns the cut size for output tables.
func (c *Config) outputTableBytes() int64 {
	if c.LogicalSSTableBytes > 0 {
		return c.LogicalSSTableBytes
	}
	return c.MaxSSTableBytes
}

// compactionFileMode reports whether flushes/compactions write one physical
// file with one barrier (BoLT) instead of one file+barrier per table.
func (c *Config) compactionFileMode() bool { return c.LogicalSSTableBytes > 0 }
