// Package bolt is a from-scratch Go implementation of BoLT — the
// Barrier-optimized LSM-Tree of Kim, Park, Lee and Nam (ACM/IFIP
// MIDDLEWARE 2020) — together with every baseline key-value store the
// paper evaluates against: LevelDB, HyperLevelDB, RocksDB, and PebblesDB,
// all expressed as profiles of one engine.
//
// BoLT attacks the fsync()/fdatasync() barrier overhead of LSM-tree
// compaction with four elements, each implemented here and individually
// toggleable:
//
//   - compaction files: one physical file (and one barrier) per compaction
//   - logical SSTables: fine-grained tables addressed by (file, offset)
//   - group compaction: many victims per compaction, fewer barriers
//   - settled compaction: zero-overlap victims promoted by a MANIFEST-only
//     edit, with dead logical SSTables reclaimed by hole punching
//
// Quickstart:
//
//	db, err := bolt.Open("/tmp/mydb", &bolt.Options{Profile: bolt.ProfileBoLT})
//	if err != nil { ... }
//	defer db.Close()
//	db.Put([]byte("k"), []byte("v"))
//	v, err := db.Get([]byte("k"))
//
// The package also exposes an in-memory backend (OpenMem) and a simulated
// SSD backend (OpenSim) whose timing model — barrier latency, queue drain,
// sequential bandwidth — drives the paper's benchmark reproductions.
package bolt

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/bolt-lsm/bolt/internal/batch"
	"github.com/bolt-lsm/bolt/internal/core"
	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/metrics"
	"github.com/bolt-lsm/bolt/internal/simdisk"
	"github.com/bolt-lsm/bolt/internal/sstable"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// ErrNotFound is returned by Get for absent keys.
var ErrNotFound = errors.New("bolt: not found")

// ErrReadOnlyMode is matched by errors.Is against write errors once the
// engine has degraded to read-only after an unrecoverable background
// failure. Reads keep serving the last committed state; the returned error
// also wraps the background failure that caused the degradation.
var ErrReadOnlyMode = core.ErrReadOnlyMode

// Profile selects which of the paper's systems the engine behaves as.
type Profile int

// The engine profiles of the paper's evaluation (Section 4).
const (
	// ProfileLevelDB mimics stock LevelDB v1.20: 2 MB SSTables (one file
	// and one fsync each), L0SlowDown=8 / L0Stop=12 governors, seek
	// compaction, serialized writers.
	ProfileLevelDB Profile = iota + 1
	// ProfileLevelDB64MB is LevelDB with 64 MB SSTables (LVL64MB).
	ProfileLevelDB64MB
	// ProfileHyperLevelDB mimics HyperLevelDB: larger SSTables, governors
	// removed, concurrent writer inserts.
	ProfileHyperLevelDB
	// ProfileRocksDB mimics RocksDB v6.7.3 defaults: 64 MB SSTables,
	// compact record format, governors 20/36, 256 MB L1, a dedicated
	// flush thread.
	ProfileRocksDB
	// ProfilePebblesDB mimics PebblesDB: HyperLevelDB base plus
	// fragmented (guarded, overlapping) levels that avoid next-level
	// rewrites.
	ProfilePebblesDB
	// ProfileBoLT is BoLT implemented over the LevelDB base: compaction
	// files, 1 MB logical SSTables, 64 MB group compaction, settled
	// compaction, and the file-descriptor cache.
	ProfileBoLT
	// ProfileHyperBoLT is BoLT implemented over the HyperLevelDB base.
	ProfileHyperBoLT
)

// String names the profile.
func (p Profile) String() string {
	switch p {
	case ProfileLevelDB:
		return "LevelDB"
	case ProfileLevelDB64MB:
		return "LevelDB-64MB"
	case ProfileHyperLevelDB:
		return "HyperLevelDB"
	case ProfileRocksDB:
		return "RocksDB"
	case ProfilePebblesDB:
		return "PebblesDB"
	case ProfileBoLT:
		return "BoLT"
	case ProfileHyperBoLT:
		return "HyperBoLT"
	default:
		return fmt.Sprintf("Profile(%d)", int(p))
	}
}

// levelDBFamilyEntryPadding models the on-disk record-format efficiency
// gap the paper measures (223 B vs 141 B per 100-byte record): LevelDB and
// its derivatives pay it, RocksDB's format does not. See DESIGN.md.
const levelDBFamilyEntryPadding = 88

// rocksDBEntryPadding calibrates RocksDB's small residual overhead.
const rocksDBEntryPadding = 6

// Options configures Open. The zero value selects ProfileLevelDB with the
// profile's defaults; any non-zero field overrides the profile.
type Options struct {
	// Profile selects the engine behaviour (default ProfileLevelDB).
	Profile Profile

	// MemTableBytes overrides the write buffer size (the paper uses 64 MB
	// for all stores).
	MemTableBytes int64
	// SSTableBytes overrides the physical SSTable size.
	SSTableBytes int64
	// LogicalSSTableBytes overrides the BoLT logical SSTable size.
	LogicalSSTableBytes int64
	// GroupCompactionBytes overrides the BoLT group compaction budget.
	GroupCompactionBytes int64
	// L1MaxBytes overrides the level-1 size limit.
	L1MaxBytes int64
	// TableCacheEntries overrides the TableCache capacity (in tables, like
	// LevelDB's max_open_files).
	TableCacheEntries int
	// BlockCacheBytes overrides the BlockCache capacity.
	BlockCacheBytes int64
	// CacheShards sets the shard count for the block/table/fd caches.
	// Zero (the default) auto-sizes to the next power of two >=
	// GOMAXPROCS, capped at 64; 1 selects the single-lock layout; other
	// values round up to a power of two.
	CacheShards int
	// L0SlowdownTrigger / L0StopTrigger override the write governors;
	// negative disables them explicitly.
	L0SlowdownTrigger int
	L0StopTrigger     int
	// BloomBitsPerKey overrides the filter density (default 10).
	BloomBitsPerKey int
	// BlockSize overrides the data block size (default 4 KiB). The bench
	// harness scales it with the other size constants so the
	// index-to-block ratio (the TableCache miss penalty driver) matches
	// the paper.
	BlockSize int

	// SyncWrites syncs the WAL on every commit. Without it (the default) a
	// write is acknowledged once its WAL record is in the operating
	// system's page cache: it survives a crash of the process but not a
	// power loss. With it, the record is fsynced before the write returns,
	// so it survives both. On Linux the WAL is appended through a shared
	// memory mapping of the file instead of write(2); a stored byte is in
	// the page cache as a written one is, so the contract is the same.
	SyncWrites bool

	// ValueThreshold enables WAL-time key-value separation: values of at
	// least this many bytes are appended to a value log during commit and
	// the tree stores a small pointer, so flushes and compactions never
	// rewrite the bytes. Zero (the default) disables separation; values
	// below the threshold are always stored inline.
	ValueThreshold int
	// VLogSegmentBytes sets the value-log segment rotation size
	// (default 16 MB).
	VLogSegmentBytes int64
	// VLogGCGarbageRatio sets the garbage fraction of a sealed segment's
	// uncollected span at which background value GC collects it
	// (default 0.5; must be <= 1).
	VLogGCGarbageRatio float64
	// VLogGCChunkBytes bounds how much of a segment one value-GC pass
	// scans (default 4 MB).
	VLogGCChunkBytes int64

	// ScrubInterval enables the background integrity scrubber: every
	// interval after the last pass ended, one pass verifies every live
	// table's block checksums (bypassing the block cache, so at-rest bit
	// rot is caught even for cached data) and quarantines corrupt tables
	// for salvage. Zero disables the scrubber; DB.Scrub runs a pass on
	// demand either way.
	ScrubInterval time.Duration
	// ScrubBytesPerSec throttles scrub read bandwidth (default 32 MB/s;
	// negative disables throttling).
	ScrubBytesPerSec int64

	// MaxBackgroundCompactions bounds the background compaction worker
	// pool: up to this many compactions with disjoint inputs and
	// non-overlapping output ranges run concurrently (L0->L1 stays
	// exclusive). Zero selects the default min(4, NumCPU); negative
	// selects 1, the serialized single-worker behaviour.
	MaxBackgroundCompactions int

	// Ablation switches (Figure 12): starting from a BoLT profile, disable
	// individual elements. DisableGroupCompaction yields +LS,
	// DisableSettled yields +GC, DisableFDCache yields +STL.
	DisableGroupCompaction bool
	DisableSettled         bool
	DisableFDCache         bool
	// EnableSettled / EnableFDCache turn the corresponding BoLT elements
	// on over a non-BoLT profile (used with LogicalSSTableBytes to graft
	// BoLT onto, e.g., the RocksDB profile — the paper's future work).
	EnableSettled bool
	EnableFDCache bool

	// VerifyInvariants enables internal layout checks after every flush
	// and compaction (for tests).
	VerifyInvariants bool

	// EventLogSize sets how many recent engine events DB.Events retains
	// (default 512).
	EventLogSize int
	// EventListener, when non-nil, receives every engine event (flushes,
	// compactions, stalls, WAL rotations, hole punches, background-error
	// handling) synchronously as it is emitted. The callback runs with no
	// engine lock held and may call back into the DB, but it runs on the
	// emitting goroutine, so a slow listener slows background work.
	EventListener func(Event)
}

// coreConfig expands the profile plus overrides into the engine config.
func (o *Options) coreConfig() core.Config {
	p := o.Profile
	if p == 0 {
		p = ProfileLevelDB
	}
	var c core.Config
	switch p {
	case ProfileLevelDB:
		c = core.Config{
			MemTableBytes:     4 << 20,
			MaxSSTableBytes:   2 << 20,
			L0SlowdownTrigger: 8,
			L0StopTrigger:     12,
			SeekCompaction:    true,
			EntryPadding:      levelDBFamilyEntryPadding,
		}
	case ProfileLevelDB64MB:
		c = core.Config{
			MemTableBytes:     4 << 20,
			MaxSSTableBytes:   64 << 20,
			L0SlowdownTrigger: 8,
			L0StopTrigger:     12,
			SeekCompaction:    true,
			EntryPadding:      levelDBFamilyEntryPadding,
		}
	case ProfileHyperLevelDB:
		c = core.Config{
			MemTableBytes:     4 << 20,
			MaxSSTableBytes:   32 << 20,
			L0SlowdownTrigger: 0,
			L0StopTrigger:     0,
			ConcurrentWriters: true,
			SeekCompaction:    false,
			EntryPadding:      levelDBFamilyEntryPadding,
		}
	case ProfileRocksDB:
		c = core.Config{
			MemTableBytes:       4 << 20,
			MaxSSTableBytes:     64 << 20,
			L0SlowdownTrigger:   20,
			L0StopTrigger:       36,
			L1MaxBytes:          256 << 20,
			SeparateFlushThread: true,
			SeekCompaction:      false,
			EntryPadding:        rocksDBEntryPadding,
		}
	case ProfilePebblesDB:
		c = core.Config{
			MemTableBytes:     4 << 20,
			MaxSSTableBytes:   64 << 20,
			L0SlowdownTrigger: 0,
			L0StopTrigger:     0,
			ConcurrentWriters: true,
			Fragmented:        true,
			SeekCompaction:    false,
			EntryPadding:      levelDBFamilyEntryPadding,
		}
	case ProfileBoLT:
		c = core.Config{
			MemTableBytes:        4 << 20,
			MaxSSTableBytes:      2 << 20,
			LogicalSSTableBytes:  1 << 20,
			GroupCompactionBytes: 64 << 20,
			SettledCompaction:    true,
			FDCache:              true,
			L0SlowdownTrigger:    8,
			L0StopTrigger:        12,
			SeekCompaction:       true,
			EntryPadding:         levelDBFamilyEntryPadding,
		}
	case ProfileHyperBoLT:
		c = core.Config{
			MemTableBytes:        4 << 20,
			MaxSSTableBytes:      32 << 20,
			LogicalSSTableBytes:  1 << 20,
			GroupCompactionBytes: 64 << 20,
			SettledCompaction:    true,
			FDCache:              true,
			L0SlowdownTrigger:    0,
			L0StopTrigger:        0,
			ConcurrentWriters:    true,
			SeekCompaction:       false,
			EntryPadding:         levelDBFamilyEntryPadding,
		}
	}

	if o.MemTableBytes > 0 {
		c.MemTableBytes = o.MemTableBytes
	}
	if o.SSTableBytes > 0 {
		c.MaxSSTableBytes = o.SSTableBytes
	}
	if o.LogicalSSTableBytes > 0 {
		c.LogicalSSTableBytes = o.LogicalSSTableBytes
	}
	if o.GroupCompactionBytes > 0 {
		c.GroupCompactionBytes = o.GroupCompactionBytes
	}
	if o.L1MaxBytes > 0 {
		c.L1MaxBytes = o.L1MaxBytes
	}
	if o.TableCacheEntries > 0 {
		c.TableCacheEntries = o.TableCacheEntries
	}
	if o.BlockCacheBytes > 0 {
		c.BlockCacheBytes = o.BlockCacheBytes
	}
	// Passed through even when negative: core clamps invalid values and
	// emits a config-clamp warning event naming the knob.
	if o.CacheShards != 0 {
		c.CacheShards = o.CacheShards
	}
	if o.L0SlowdownTrigger != 0 {
		c.L0SlowdownTrigger = max(o.L0SlowdownTrigger, 0)
	}
	if o.L0StopTrigger != 0 {
		c.L0StopTrigger = max(o.L0StopTrigger, 0)
	}
	if o.BloomBitsPerKey != 0 {
		c.BloomBitsPerKey = o.BloomBitsPerKey
	}
	if o.BlockSize > 0 {
		c.BlockSize = o.BlockSize
	}
	c.SyncWAL = o.SyncWrites
	if o.ValueThreshold > 0 {
		c.ValueThreshold = o.ValueThreshold
	}
	if o.VLogSegmentBytes > 0 {
		c.VLogSegmentBytes = o.VLogSegmentBytes
	}
	if o.VLogGCGarbageRatio > 0 {
		c.VLogGCGarbageRatio = o.VLogGCGarbageRatio
	}
	if o.VLogGCChunkBytes > 0 {
		c.VLogGCChunkBytes = o.VLogGCChunkBytes
	}
	c.ScrubInterval = o.ScrubInterval
	c.ScrubBytesPerSec = o.ScrubBytesPerSec
	c.MaxBackgroundCompactions = o.MaxBackgroundCompactions
	c.VerifyInvariants = o.VerifyInvariants
	c.EventLogSize = o.EventLogSize
	if o.EventListener != nil {
		c.EventListener = events.Listener(o.EventListener)
	}
	if o.EnableSettled {
		c.SettledCompaction = true
	}
	if o.EnableFDCache {
		c.FDCache = true
	}
	if o.DisableGroupCompaction {
		c.GroupCompactionBytes = 0
	}
	if o.DisableSettled {
		c.SettledCompaction = false
	}
	if o.DisableFDCache {
		c.FDCache = false
	}
	return c
}

// SimDisk parameterizes the simulated SSD used by OpenSim; zero fields take
// defaults approximating the paper's SATA SSD (Samsung 860 EVO class).
type SimDisk struct {
	// WriteBandwidth in bytes/second (default 500 MB/s).
	WriteBandwidth float64
	// ReadBandwidth in bytes/second (default 550 MB/s).
	ReadBandwidth float64
	// ReadLatency per read op (default 80 ”s).
	ReadLatency time.Duration
	// BarrierLatency per fsync barrier (default 3 ms).
	BarrierLatency time.Duration
	// MetadataOpLatency per create/open/unlink/punch (default 30 ”s).
	MetadataOpLatency time.Duration
	// QueueDepth bounds concurrent reads (default 32).
	QueueDepth int
	// TimeScale scales all simulated sleeps; 0 means 1.0 (real time),
	// negative disables sleeping entirely (pure accounting).
	TimeScale float64
}

func (d SimDisk) profile() simdisk.Profile {
	p := simdisk.DefaultProfile()
	if d.WriteBandwidth > 0 {
		p.WriteBandwidth = d.WriteBandwidth
	}
	if d.ReadBandwidth > 0 {
		p.ReadBandwidth = d.ReadBandwidth
	}
	if d.ReadLatency > 0 {
		p.ReadLatency = d.ReadLatency
	}
	if d.BarrierLatency > 0 {
		p.BarrierLatency = d.BarrierLatency
	}
	if d.MetadataOpLatency > 0 {
		p.MetadataOpLatency = d.MetadataOpLatency
	}
	if d.QueueDepth > 0 {
		p.QueueDepth = d.QueueDepth
	}
	switch {
	case d.TimeScale < 0:
		p.TimeScale = 0
	case d.TimeScale > 0:
		p.TimeScale = d.TimeScale
	}
	return p
}

// DB is an open database.
//
//boltvet:mustclose
type DB struct {
	inner  *core.DB
	device *simdisk.Device // nil unless OpenSim
}

// Open opens (creating if necessary) a database in directory path on the
// real filesystem.
func Open(path string, o *Options) (*DB, error) {
	fs, err := vfs.NewOS(path)
	if err != nil {
		return nil, err
	}
	return openOn(fs, o, nil)
}

// OpenMem opens a fresh in-memory database (no durability; tests/demos).
func OpenMem(o *Options) (*DB, error) {
	return openOn(vfs.NewMem(), o, nil)
}

// OpenSim opens an in-memory database whose I/O is charged to a simulated
// SSD — the substrate for the paper's benchmark reproduction.
func OpenSim(o *Options, d SimDisk) (*DB, error) {
	device := simdisk.NewDevice(d.profile())
	return openOn(vfs.NewSim(device), o, device)
}

func openOn(fs vfs.FS, o *Options, device *simdisk.Device) (*DB, error) {
	if o == nil {
		o = &Options{}
	}
	inner, err := core.Open(fs, o.coreConfig())
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner, device: device}, nil
}

// Close releases the database.
func (db *DB) Close() error { return db.inner.Close() }

// Put inserts or overwrites key.
func (db *DB) Put(key, value []byte) error { return db.inner.Put(key, value) }

// Delete removes key.
func (db *DB) Delete(key []byte) error { return db.inner.Delete(key) }

// Get returns the value of key, or ErrNotFound.
func (db *DB) Get(key []byte) ([]byte, error) {
	v, err := db.inner.Get(key, nil)
	if errors.Is(err, core.ErrNotFound) {
		return nil, ErrNotFound
	}
	return v, err
}

// Batch is a set of writes applied atomically by Apply.
type Batch struct {
	b *batch.Batch
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{b: batch.New()} }

// Put records an insertion.
func (b *Batch) Put(key, value []byte) { b.b.Put(key, value) }

// Delete records a deletion.
func (b *Batch) Delete(key []byte) { b.b.Delete(key) }

// Len returns the number of operations.
func (b *Batch) Len() int { return b.b.Count() }

// Apply writes the batch atomically.
func (db *DB) Apply(b *Batch) error { return db.inner.Write(b.b) }

// Snapshot pins a consistent read view.
//
//boltvet:mustclose
type Snapshot struct {
	s *core.Snapshot
}

// GetSnapshot pins the current state; callers must Release it.
func (db *DB) GetSnapshot() *Snapshot { return &Snapshot{s: db.inner.NewSnapshot()} }

// Release unpins the snapshot.
func (s *Snapshot) Release() { s.s.Release() }

// GetAt reads key at the snapshot.
func (db *DB) GetAt(key []byte, snap *Snapshot) ([]byte, error) {
	v, err := db.inner.Get(key, snap.s)
	if errors.Is(err, core.ErrNotFound) {
		return nil, ErrNotFound
	}
	return v, err
}

// Iterator walks user keys in ascending order.
//
//boltvet:mustclose
type Iterator struct {
	it *core.DBIter
}

// NewIterator returns an iterator over the latest state (snap may be nil).
func (db *DB) NewIterator(snap *Snapshot) *Iterator {
	var cs *core.Snapshot
	if snap != nil {
		cs = snap.s
	}
	return &Iterator{it: db.inner.NewIter(cs)}
}

// First positions at the first key.
func (it *Iterator) First() bool { return it.it.First() }

// SeekGE positions at the first key >= key.
func (it *Iterator) SeekGE(key []byte) bool { return it.it.SeekGE(key) }

// Next advances.
func (it *Iterator) Next() bool { return it.it.Next() }

// Valid reports whether the iterator is positioned.
func (it *Iterator) Valid() bool { return it.it.Valid() }

// Key returns the current key (valid until the next move).
func (it *Iterator) Key() []byte { return it.it.Key() }

// Value returns the current value (valid until the next move).
func (it *Iterator) Value() []byte { return it.it.Value() }

// Err returns the first error encountered.
func (it *Iterator) Err() error { return it.it.Err() }

// Close releases the iterator.
func (it *Iterator) Close() error { return it.it.Close() }

// Stats is a combined snapshot of the engine's counters and its caches —
// everything the paper's figures are built from. The counters are declared
// once, each with its meaning, in internal/metrics.Counters and promoted
// here; those the figures read:
//
//   - Fsyncs: fsync/fdatasync barriers issued (Figures 4a and 11).
//   - BytesWritten, BytesRead: file-level totals (Figure 12's side graph);
//     write amplification is BytesWritten / BytesIn.
//   - Writes, Gets, BytesIn: committed operations, lookups and accepted
//     user payload bytes.
//   - StallSlowdown, StallStops, StallTime (nanoseconds): write-governor
//     activity.
//   - MemtableFlushes, Compactions, SeekCompactions, SettledPromotions,
//     CompactionBytesIn, CompactionBytesOut: background work, counted when
//     it commits.
//   - HolePunches: dead ranges reclaimed barrier-free, of logical SSTables
//     and of value-log segments alike; HolePunchFallbacks: ranges the
//     backend could not punch.
//   - VLogAppends, VLogAppendedBytes, VLogDerefs: records separated into
//     the value log and reads that followed a pointer back into it;
//     VLogGCPasses, VLogReclaimedBytes: value-GC progress.
//
// The cache fields come from core.CacheStats: TableHits, TableMisses and
// MetaBytesRead quantify the metadata-caching overhead of Section 2.6 (a
// table-cache miss reads the whole filter+index region); BlockHits,
// BlockMisses, BlockUsedBytes and the resolved shard counts describe the
// block cache (see Options.CacheShards).
type Stats struct {
	metrics.Snapshot
	core.CacheStats
}

// Stats returns current counters.
func (db *DB) Stats() Stats {
	return Stats{db.inner.Metrics().Snapshot(), db.inner.CacheStats()}
}

// SimStats reports the simulated device counters; ok is false when the DB
// was not opened with OpenSim.
type SimStats struct {
	Barriers     int64
	BytesFlushed int64
	BytesRead    int64
	Reads        int64
	BarrierStall time.Duration
	ReadStall    time.Duration
}

// SimStats returns simulated-device counters for OpenSim databases.
func (db *DB) SimStats() (SimStats, bool) {
	if db.device == nil {
		return SimStats{}, false
	}
	s := db.device.Stats()
	return SimStats{
		Barriers:     s.Barriers,
		BytesFlushed: s.BytesFlushed,
		BytesRead:    s.BytesRead,
		Reads:        s.Reads,
		BarrierStall: s.BarrierStall,
		ReadStall:    s.ReadStall,
	}, true
}

// WaitIdle blocks until background work — flushes, compactions, value-GC
// and scrub passes, and any foreground CompactRange, CompactValueLog or
// Scrub in flight — drains, and
// surfaces any background failure pending at that point: a fatal engine
// error, or the read-only degradation (matched by ErrReadOnlyMode).
func (db *DB) WaitIdle() error { return db.inner.WaitIdle() }

// ErrCorrupt is the table-corruption sentinel: every corruption finding —
// a checksum mismatch surfacing from a read, a RangeCorruptError for a
// quarantined span — matches errors.Is(err, ErrCorrupt).
var ErrCorrupt = sstable.ErrCorrupt

// RangeCorruptError is returned by reads whose key falls inside the span
// of a quarantined (corrupt) table: the error names the unavailable
// user-key range while keys outside it — and all writes — keep working.
// The range recovers once the salvage compaction rewrites the table's
// readable blocks. Match with errors.As.
type RangeCorruptError = core.RangeCorruptError

// Scrub runs one synchronous integrity pass over all live tables,
// verifying every block checksum and quarantining corrupt tables for
// salvage. The background scrubber (Options.ScrubInterval) runs the same
// pass periodically. A database degraded to read-only returns its
// pending error (matched by ErrReadOnlyMode) instead.
func (db *DB) Scrub() error { return db.inner.Scrub() }

// CompactRange synchronously flushes the memtable and compacts every table
// overlapping the user-key range [start, limit] (nil = unbounded) down the
// tree. CompactRange(nil, nil) settles the whole database.
func (db *DB) CompactRange(start, limit []byte) error {
	return db.inner.CompactRange(start, limit)
}

// CompactValueLog synchronously garbage-collects the value log until no
// sealed segment has uncollected garbage, rewriting live records and
// reclaiming dead ranges. A no-op unless Options.ValueThreshold enabled
// key-value separation.
func (db *DB) CompactValueLog() error { return db.inner.CompactValueLog() }

// RepairReport summarizes a Repair run.
type RepairReport struct {
	TablesRecovered int
	TablesLost      int
	FilesScanned    int
	Entries         int
	VLogSegments    int
}

// Repair rebuilds the MANIFEST of the database at path from its table
// files (for use when CURRENT or the MANIFEST is lost or corrupt; Open
// refuses such directories and points here). See cmd/bolt-repair.
func Repair(path string) (RepairReport, error) {
	fs, err := vfs.NewOS(path)
	if err != nil {
		return RepairReport{}, err
	}
	r, err := core.Repair(fs, core.Config{})
	if err != nil {
		return RepairReport{}, err
	}
	return RepairReport{
		TablesRecovered: r.TablesRecovered,
		TablesLost:      r.TablesLost,
		FilesScanned:    r.FilesScanned,
		Entries:         r.Entries,
		VLogSegments:    r.VLogSegments,
	}, nil
}

// Event is one entry of the engine's structured event trace: a flush,
// compaction, stall, WAL rotation, hole punch, or background-error
// transition, with its volumes, barrier count, and duration. Its String
// method renders a one-line human-readable form.
type Event = events.Event

// EventType labels an Event's kind; the Event* constants enumerate it.
type EventType = events.Type

// Event types, for filtering traces and listener callbacks.
const (
	EventFlushStart        = events.TypeFlushStart
	EventFlushEnd          = events.TypeFlushEnd
	EventCompactionStart   = events.TypeCompactionStart
	EventCompactionEnd     = events.TypeCompactionEnd
	EventSettledPromotion  = events.TypeSettledPromotion
	EventHolePunch         = events.TypeHolePunch
	EventHolePunchFallback = events.TypeHolePunchFallback
	EventStallBegin        = events.TypeStallBegin
	EventStallEnd          = events.TypeStallEnd
	EventWALRotation       = events.TypeWALRotation
	EventBgRetry           = events.TypeBgRetry
	EventBgDegraded        = events.TypeBgDegraded
	EventScrubStart        = events.TypeScrubStart
	EventScrubEnd          = events.TypeScrubEnd
	EventScrubFinding      = events.TypeScrubFinding
	EventQuarantine        = events.TypeQuarantine
	EventQuarantineClear   = events.TypeQuarantineClear
	EventConfigClamp       = events.TypeConfigClamp
	EventVLogRotation      = events.TypeVLogRotation
	EventVLogGC            = events.TypeVLogGC
	EventVLogGCStuck       = events.TypeVLogGCStuck
)

// Events returns the retained event trace, oldest first. The ring holds
// the most recent Options.EventLogSize events; install an EventListener to
// observe every event without loss.
func (db *DB) Events() []Event { return db.inner.Events() }

// LevelStats describes one level of the live tree: layout (files, tables,
// bytes, dead bytes, read amplification) plus cumulative per-level
// compaction counters.
type LevelStats = metrics.LevelStats

// LevelStats reports the live shape of the tree, one entry per level.
func (db *DB) LevelStats() []LevelStats { return db.inner.LevelStats() }

// WriteMetrics renders the full metric surface — engine counters,
// per-level stats, cache and I/O counters — in the Prometheus text
// exposition format. Mount it on an HTTP handler to scrape the
// engine (see examples/kvserver).
func (db *DB) WriteMetrics(w io.Writer) error { return db.inner.WriteMetrics(w) }

// NumLevelFiles returns per-level table counts (diagnostics).
func (db *DB) NumLevelFiles() []int {
	files := db.inner.NumLevelFiles()
	return files[:]
}

// DebugLayout renders the current table layout (diagnostics).
func (db *DB) DebugLayout() string { return db.inner.DebugVersion() }
