// Package metrics declares the engine's counters. Everything the paper
// plots — fsync counts, total bytes written, write-stall time, compaction
// activity, cache behaviour — is one field of Counters, accumulated
// lock-free in Metrics, read through Snapshot and exported by WriteProm.
package metrics

import (
	"reflect"
	"sync/atomic"
	"time"

	"github.com/bolt-lsm/bolt/internal/manifest"
)

// CompactionReason buckets completed compactions by what triggered them,
// indexing the per-reason counters. The two size triggers (L0 file count,
// level bytes) share the size bucket; the table-compaction reasons precede
// CompactionValueGC.
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

// Counters is the one declaration of the engine's counters: Metrics holds
// it as atomics, Snapshot as values, and Snapshot, WriteProm and bolt.Stats
// are generated from it. Each field is one fact, counted once, when what
// it counts has committed.
//
// Tags: prom is the exported series name and help its description; type
// is "gauge" for a gauge (default: counter) or "seconds" for a nanosecond
// total exported as a gauge in seconds; label names the label of an
// array's elements, "level" (the index) or "reason" (CompactionReasonNames).
type Counters[T any] struct {
	// Write path. StallTime is in nanoseconds.
	Writes         T `prom:"bolt_writes_total" help:"Committed write operations."`
	BytesIn        T `prom:"bolt_bytes_in_total" help:"User payload bytes accepted."`
	StallSlowdown  T `prom:"bolt_stall_slowdown_total" help:"L0 slowdown events (1ms write delays)."`
	StallStops     T `prom:"bolt_stall_stops_total" help:"Blocking write stalls (L0 stop or memtable full)."`
	StallTime      T `prom:"bolt_stall_seconds" type:"seconds" help:"Total time writers spent stalled."`
	WALRecords     T `prom:"bolt_wal_records_total" help:"WAL records appended."`
	GroupCommits   T `prom:"bolt_group_commits_total" help:"Leader group commits."`
	MemtableSwitch T `prom:"bolt_memtable_switches_total" help:"Memtable rotations."`

	// File-level I/O, counted by the engine's VFS wrapper whatever the
	// backend. Fsyncs is the number the paper plots in Figures 4a and 11;
	// BytesWritten is the "total written bytes" side graph of Figure 12.
	Fsyncs       T `prom:"bolt_fsyncs_total" help:"Barriers (fsync/fdatasync) issued."`
	BytesWritten T `prom:"bolt_io_bytes_written_total" help:"Bytes written at the file layer."`
	BytesRead    T `prom:"bolt_io_bytes_read_total" help:"Bytes read at the file layer."`
	FileOpens    T `prom:"bolt_file_opens_total" help:"File opens."`
	FileCreates  T `prom:"bolt_file_creates_total" help:"File creates."`
	FileRemoves  T `prom:"bolt_file_removes_total" help:"File removes."`

	// Compaction. CompactionsByReason counts committed compactions by
	// trigger, value-GC passes included (see CompactionReason). HolePunches
	// counts dead table ranges and value-log ranges alike.
	CompactionsByReason [NumCompactionReasons]T `prom:"bolt_compactions_by_reason_total" label:"reason" help:"Compactions completed, by trigger."`
	SettledPromotions   T                       `prom:"bolt_settled_promotions_total" help:"Tables promoted without rewrite by settled compactions."`
	CompactionBytesIn   T                       `prom:"bolt_compaction_bytes_in_total" help:"Bytes read by compactions."`
	CompactionBytesOut  T                       `prom:"bolt_compaction_bytes_out_total" help:"Bytes written by compactions."`
	TablesCreated       T                       `prom:"bolt_tables_created_total" help:"Logical SSTables created."`
	TablesDeleted       T                       `prom:"bolt_tables_deleted_total" help:"Logical SSTables deleted."`
	HolePunches         T                       `prom:"bolt_hole_punches_total" help:"Dead ranges reclaimed barrier-free."`
	HolePunchFallbacks  T                       `prom:"bolt_hole_punch_fallbacks_total" help:"Punches degraded to dead-range accounting."`

	// Per-level compaction activity, indexed by level. A flush counts as a
	// compaction into L0; an L(n)->L(n+1) compaction counts out of n and
	// into n+1, with bytes attributed the same way; a salvage, which
	// rewrites tables within their level, counts only its bytes. Exported
	// as gauges under their historical names.
	LevelCompactionsIn  [manifest.NumLevels]T `prom:"bolt_level_compactions_in" type:"gauge" label:"level" help:"Compactions that wrote into the level."`
	LevelCompactionsOut [manifest.NumLevels]T `prom:"bolt_level_compactions_out" type:"gauge" label:"level" help:"Compactions that read from the level."`
	LevelBytesRead      [manifest.NumLevels]T `prom:"bolt_level_bytes_read" type:"gauge" label:"level" help:"Compaction bytes read from the level."`
	LevelBytesWritten   [manifest.NumLevels]T `prom:"bolt_level_bytes_written" type:"gauge" label:"level" help:"Flush and compaction bytes written into the level."`

	// Read path.
	Gets          T `prom:"bolt_gets_total" help:"Point lookups."`
	GetHits       T `prom:"bolt_get_hits_total" help:"Point lookups that found a value."`
	TablesChecked T `prom:"bolt_tables_checked_total" help:"Tables consulted across all gets."`
	BloomSkips    T `prom:"bolt_bloom_skips_total" help:"Tables skipped by bloom filters."`

	// Background-failure handling.
	BgRetries            T `prom:"bolt_bg_retries_total" help:"Background attempts retried after transient failures."`
	BgRecoveredFaults    T `prom:"bolt_bg_recovered_faults_total" help:"Background ops that succeeded after failed attempts."`
	ReadOnlyDegradations T `prom:"bolt_read_only_degradations_total" help:"Entries into read-only mode."`

	// Value log (WAL-time key-value separation).
	VLogAppends        T `prom:"bolt_vlog_appends_total" help:"Values separated into the value log at commit."`
	VLogAppendedBytes  T `prom:"bolt_vlog_appended_bytes_total" help:"Record bytes appended to the value log."`
	VLogDerefs         T `prom:"bolt_vlog_derefs_total" help:"Reads that dereferenced a value-log pointer."`
	VLogReclaimedBytes T `prom:"bolt_vlog_reclaimed_bytes_total" help:"Value-log bytes made reclaimable by GC passes."`
	VLogGCStuck        T `prom:"bolt_vlog_gc_stuck_segments_total" help:"Value-log segments whose GC a rotted record header blocks."`

	// Integrity: scrub, quarantine, salvage.
	ScrubPasses      T `prom:"bolt_scrub_passes_total" help:"Completed background integrity scrub passes."`
	ScrubTables      T `prom:"bolt_scrub_tables_verified_total" help:"Tables verified by the scrubber."`
	ScrubBytes       T `prom:"bolt_scrub_bytes_read_total" help:"Table bytes read by the scrubber."`
	ScrubCorruptions T `prom:"bolt_scrub_corruptions_total" help:"Table corruption findings (scrub and lazy detection)."`
	Quarantines      T `prom:"bolt_quarantines_total" help:"Tables placed under quarantine."`
	Salvages         T `prom:"bolt_salvages_total" help:"Salvage compactions that cleared a quarantine."`
	SalvageSkipped   T `prom:"bolt_salvage_skipped_blocks_total" help:"Unrecoverable blocks dropped by salvage compactions."`
}

// Metrics is the live counter set of one DB instance.
type Metrics struct {
	Counters[atomic.Int64]
}

// AddStall records a writer stall of the given duration.
func (m *Metrics) AddStall(d time.Duration) { m.StallTime.Add(int64(d)) }

// Snapshot is a point-in-time copy of the counters, plus the totals other
// counters already hold: those are derived here, never counted twice.
type Snapshot struct {
	Counters[int64]

	MemtableFlushes int64 `prom:"bolt_memtable_flushes_total" help:"Memtable flushes completed."`
	Compactions     int64 `prom:"bolt_compactions_total" help:"Compactions completed."`
	SeekCompactions int64 `prom:"bolt_seek_compactions_total" help:"Compactions triggered by seek misses."`
	VLogGCPasses    int64 `prom:"bolt_vlog_gc_passes_total" help:"Value-log GC passes completed."`
}

// Snapshot copies the counters and derives
// the totals.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	dst := leaves[int64](reflect.ValueOf(&s.Counters).Elem())
	for i, c := range leaves[atomic.Int64](reflect.ValueOf(&m.Counters).Elem()) {
		*dst[i] = c.Load()
	}
	s.MemtableFlushes = s.LevelCompactionsIn[0]
	for _, n := range s.CompactionsByReason[:CompactionValueGC] {
		s.Compactions += n
	}
	s.SeekCompactions = s.CompactionsByReason[CompactionSeek]
	s.VLogGCPasses = s.CompactionsByReason[CompactionValueGC]
	return s
}

// leaves returns a pointer to every T in the addressable struct v, in
// declaration order: embedded structs are walked in place, arrays element
// by element.
func leaves[T any](v reflect.Value) []*T {
	var out []*T
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch {
		case v.Type() == reflect.TypeFor[T]():
			out = append(out, v.Addr().Interface().(*T))
		case v.Kind() == reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		}
	}
	walk(v)
	return out
}
