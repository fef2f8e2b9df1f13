// Package metrics defines the engine's counters. Everything the paper
// plots — fsync counts, total bytes written, write-stall time, compaction
// activity, cache behaviour — is accumulated here, lock-free, and read
// through Snapshot.
package metrics

import (
	"sync/atomic"
	"time"

	"github.com/bolt-lsm/bolt/internal/histogram"
	"github.com/bolt-lsm/bolt/internal/manifest"
)

// CompactionReason buckets completed compactions by what triggered them,
// indexing the per-reason counters. The two size triggers (L0 file count,
// level bytes) share the size bucket.
type CompactionReason int

// The per-reason compaction counter buckets.
const (
	CompactionSize CompactionReason = iota
	CompactionSeek
	CompactionSettled
	CompactionFragmented
	CompactionManual
	CompactionSalvage
	CompactionValueGC
	NumCompactionReasons
)

// CompactionReasonNames are the Prometheus label values, indexed by
// CompactionReason.
var CompactionReasonNames = [NumCompactionReasons]string{
	"size", "seek", "settled", "fragmented", "manual", "salvage", "value-gc",
}

// Metrics is the live counter set of one DB instance.
type Metrics struct {
	// Write path.
	Writes          atomic.Int64 // committed operations
	BytesIn         atomic.Int64 // user payload bytes accepted
	StallSlowdown   atomic.Int64 // L0SlowDown events (1 ms sleeps)
	StallStops      atomic.Int64 // L0Stop / memtable-full blocking events
	StallTimeNs     atomic.Int64 // total time writers spent stalled
	WALRecords      atomic.Int64
	GroupCommits    atomic.Int64 // leader commits (batches may be grouped)
	MemtableSwitch  atomic.Int64
	MemtableFlushes atomic.Int64

	// Compaction.
	Compactions        atomic.Int64
	SettledPromotions  atomic.Int64 // tables promoted without rewrite
	CompactionBytesIn  atomic.Int64 // bytes read by compactions
	CompactionBytesOut atomic.Int64 // bytes written by compactions
	TablesCreated      atomic.Int64
	TablesDeleted      atomic.Int64
	HolePunches        atomic.Int64
	SeekCompactions    atomic.Int64
	// CompactionsByReason splits Compactions by trigger (see
	// CompactionReason).
	CompactionsByReason [NumCompactionReasons]atomic.Int64

	// Read path.
	Gets          atomic.Int64
	GetHits       atomic.Int64
	TablesChecked atomic.Int64 // tables consulted across all gets
	BloomSkips    atomic.Int64 // tables skipped by bloom filters

	// Per-level compaction activity, indexed by level. A flush counts as
	// a compaction into L0; an L(n)->L(n+1) compaction counts out of n and
	// into n+1, with bytes attributed the same way.
	LevelCompactionsIn  [manifest.NumLevels]atomic.Int64 // compactions that wrote into the level
	LevelCompactionsOut [manifest.NumLevels]atomic.Int64 // compactions that read from the level
	LevelBytesRead      [manifest.NumLevels]atomic.Int64 // compaction bytes read from the level
	LevelBytesWritten   [manifest.NumLevels]atomic.Int64 // flush+compaction bytes written into the level

	// Background-failure handling.
	BgRetries            atomic.Int64 // flush/compaction attempts retried after a transient failure
	BgRecoveredFaults    atomic.Int64 // background ops that succeeded after failed attempts
	ReadOnlyDegradations atomic.Int64 // entries into read-only mode
	HolePunchFallbacks   atomic.Int64 // punches degraded to dead-range accounting

	// Value log (WAL-time key-value separation).
	VLogAppends        atomic.Int64 // values extracted into the value log
	VLogAppendedBytes  atomic.Int64 // record bytes appended to the value log
	VLogDerefs         atomic.Int64 // pointer dereferences on the read path
	VLogGCPasses       atomic.Int64 // value-GC chunk passes completed
	VLogReclaimedBytes atomic.Int64 // value-log bytes the passes made reclaimable
	VLogGCStuck        atomic.Int64 // segments whose GC a rotted record header blocks

	// Integrity: scrub, quarantine, salvage.
	ScrubPasses      atomic.Int64 // completed background scrub passes
	ScrubTables      atomic.Int64 // tables verified by the scrubber
	ScrubBytes       atomic.Int64 // table bytes the scrubber read
	ScrubCorruptions atomic.Int64 // corruption findings (scrub + lazy detection)
	Quarantines      atomic.Int64 // tables placed under quarantine
	Salvages         atomic.Int64 // salvage compactions that cleared a quarantine
	SalvageSkipped   atomic.Int64 // unrecoverable blocks dropped by salvages

	// Latency histograms.
	WriteLatency histogram.Histogram
	ReadLatency  histogram.Histogram
	ScanLatency  histogram.Histogram
}

// AddStall records a writer stall of the given duration.
func (m *Metrics) AddStall(d time.Duration) { m.StallTimeNs.Add(int64(d)) }

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	Writes          int64
	BytesIn         int64
	StallSlowdown   int64
	StallStops      int64
	StallTime       time.Duration
	WALRecords      int64
	GroupCommits    int64
	MemtableSwitch  int64
	MemtableFlushes int64

	Compactions        int64
	SettledPromotions  int64
	CompactionBytesIn  int64
	CompactionBytesOut int64
	TablesCreated      int64
	TablesDeleted      int64
	HolePunches        int64
	SeekCompactions    int64

	CompactionsByReason [NumCompactionReasons]int64

	Gets          int64
	GetHits       int64
	TablesChecked int64
	BloomSkips    int64

	LevelCompactionsIn  [manifest.NumLevels]int64
	LevelCompactionsOut [manifest.NumLevels]int64
	LevelBytesRead      [manifest.NumLevels]int64
	LevelBytesWritten   [manifest.NumLevels]int64

	BgRetries            int64
	BgRecoveredFaults    int64
	ReadOnlyDegradations int64
	HolePunchFallbacks   int64

	VLogAppends        int64
	VLogAppendedBytes  int64
	VLogDerefs         int64
	VLogGCPasses       int64
	VLogReclaimedBytes int64
	VLogGCStuck        int64

	ScrubPasses      int64
	ScrubTables      int64
	ScrubBytes       int64
	ScrubCorruptions int64
	Quarantines      int64
	Salvages         int64
	SalvageSkipped   int64
}

// Snapshot copies the scalar counters (histograms are read directly).
func (m *Metrics) Snapshot() Snapshot {
	s := m.snapshotScalars()
	for r := CompactionReason(0); r < NumCompactionReasons; r++ {
		s.CompactionsByReason[r] = m.CompactionsByReason[r].Load()
	}
	for l := 0; l < manifest.NumLevels; l++ {
		s.LevelCompactionsIn[l] = m.LevelCompactionsIn[l].Load()
		s.LevelCompactionsOut[l] = m.LevelCompactionsOut[l].Load()
		s.LevelBytesRead[l] = m.LevelBytesRead[l].Load()
		s.LevelBytesWritten[l] = m.LevelBytesWritten[l].Load()
	}
	return s
}

func (m *Metrics) snapshotScalars() Snapshot {
	return Snapshot{
		Writes:          m.Writes.Load(),
		BytesIn:         m.BytesIn.Load(),
		StallSlowdown:   m.StallSlowdown.Load(),
		StallStops:      m.StallStops.Load(),
		StallTime:       time.Duration(m.StallTimeNs.Load()),
		WALRecords:      m.WALRecords.Load(),
		GroupCommits:    m.GroupCommits.Load(),
		MemtableSwitch:  m.MemtableSwitch.Load(),
		MemtableFlushes: m.MemtableFlushes.Load(),

		Compactions:        m.Compactions.Load(),
		SettledPromotions:  m.SettledPromotions.Load(),
		CompactionBytesIn:  m.CompactionBytesIn.Load(),
		CompactionBytesOut: m.CompactionBytesOut.Load(),
		TablesCreated:      m.TablesCreated.Load(),
		TablesDeleted:      m.TablesDeleted.Load(),
		HolePunches:        m.HolePunches.Load(),
		SeekCompactions:    m.SeekCompactions.Load(),

		Gets:          m.Gets.Load(),
		GetHits:       m.GetHits.Load(),
		TablesChecked: m.TablesChecked.Load(),
		BloomSkips:    m.BloomSkips.Load(),

		BgRetries:            m.BgRetries.Load(),
		BgRecoveredFaults:    m.BgRecoveredFaults.Load(),
		ReadOnlyDegradations: m.ReadOnlyDegradations.Load(),
		HolePunchFallbacks:   m.HolePunchFallbacks.Load(),

		VLogAppends:        m.VLogAppends.Load(),
		VLogAppendedBytes:  m.VLogAppendedBytes.Load(),
		VLogDerefs:         m.VLogDerefs.Load(),
		VLogGCPasses:       m.VLogGCPasses.Load(),
		VLogReclaimedBytes: m.VLogReclaimedBytes.Load(),
		VLogGCStuck:        m.VLogGCStuck.Load(),

		ScrubPasses:      m.ScrubPasses.Load(),
		ScrubTables:      m.ScrubTables.Load(),
		ScrubBytes:       m.ScrubBytes.Load(),
		ScrubCorruptions: m.ScrubCorruptions.Load(),
		Quarantines:      m.Quarantines.Load(),
		Salvages:         m.Salvages.Load(),
		SalvageSkipped:   m.SalvageSkipped.Load(),
	}
}
