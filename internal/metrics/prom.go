package metrics

import (
	"fmt"
	"io"

	"github.com/bolt-lsm/bolt/internal/histogram"
)

// LevelStats describes one level of the live tree, combining layout
// figures read from the current Version with cumulative per-level
// compaction counters.
type LevelStats struct {
	Level int
	// Files is the number of distinct physical files backing the level;
	// with compaction files this is smaller than Tables.
	Files int
	// Tables is the number of logical SSTables.
	Tables int
	// Bytes is the live logical data volume.
	Bytes int64
	// DeadBytes is space held by dead logical SSTables whose hole punch
	// failed or is pending — allocated but unreachable.
	DeadBytes int64
	// CompactionsIn / CompactionsOut count compactions that wrote into /
	// read from the level (a flush counts as a compaction into L0).
	CompactionsIn  int64
	CompactionsOut int64
	// BytesRead / BytesWritten are the cumulative compaction volumes on
	// each side of the level.
	BytesRead    int64
	BytesWritten int64
	// ReadAmp is the number of sorted runs a point lookup may consult in
	// this level: the table count for L0, at most 1 below.
	ReadAmp int
	// WriteAmp is BytesWritten divided by the user bytes accepted by the
	// DB — the level's share of total write amplification.
	WriteAmp float64
}

// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4). The first write error sticks; later calls are no-ops.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter returns a writer emitting to w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first error encountered while writing.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// Counter emits one cumulative counter sample.
func (p *PromWriter) Counter(name, help string, v int64) {
	p.printf("# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// Gauge emits one gauge sample.
func (p *PromWriter) Gauge(name, help string, v float64) {
	p.printf("# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

// LabeledCounter emits one counter sample per label value.
func (p *PromWriter) LabeledCounter(name, help, label string, names []string, values []int64) {
	p.printf("# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	for i, n := range names {
		p.printf("%s{%s=%q} %d\n", name, label, n, values[i])
	}
}

// LevelGauge emits one gauge sample per level, labelled level="N".
func (p *PromWriter) LevelGauge(name, help string, value func(LevelStats) float64, levels []LevelStats) {
	p.printf("# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	for _, ls := range levels {
		p.printf("%s{level=\"%d\"} %g\n", name, ls.Level, value(ls))
	}
}

// Summary emits a latency histogram as a Prometheus summary in seconds.
func (p *PromWriter) Summary(name, help string, h *histogram.Histogram) {
	p.printf("# HELP %s %s\n# TYPE %s summary\n", name, help, name)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		p.printf("%s{quantile=\"%g\"} %g\n", name, q, h.Quantile(q).Seconds())
	}
	p.printf("%s_sum %g\n%s_count %d\n", name, h.Sum().Seconds(), name, h.Count())
}

// Levels emits the standard per-level metric set.
func (p *PromWriter) Levels(levels []LevelStats) {
	p.LevelGauge("bolt_level_files", "Distinct physical files per level.",
		func(l LevelStats) float64 { return float64(l.Files) }, levels)
	p.LevelGauge("bolt_level_tables", "Logical SSTables per level.",
		func(l LevelStats) float64 { return float64(l.Tables) }, levels)
	p.LevelGauge("bolt_level_bytes", "Live logical bytes per level.",
		func(l LevelStats) float64 { return float64(l.Bytes) }, levels)
	p.LevelGauge("bolt_level_dead_bytes", "Dead-range bytes awaiting reclamation per level.",
		func(l LevelStats) float64 { return float64(l.DeadBytes) }, levels)
	p.LevelGauge("bolt_level_compactions_in", "Compactions that wrote into the level.",
		func(l LevelStats) float64 { return float64(l.CompactionsIn) }, levels)
	p.LevelGauge("bolt_level_compactions_out", "Compactions that read from the level.",
		func(l LevelStats) float64 { return float64(l.CompactionsOut) }, levels)
	p.LevelGauge("bolt_level_bytes_read", "Compaction bytes read from the level.",
		func(l LevelStats) float64 { return float64(l.BytesRead) }, levels)
	p.LevelGauge("bolt_level_bytes_written", "Flush and compaction bytes written into the level.",
		func(l LevelStats) float64 { return float64(l.BytesWritten) }, levels)
	p.LevelGauge("bolt_level_read_amp", "Sorted runs a point read may consult in the level.",
		func(l LevelStats) float64 { return float64(l.ReadAmp) }, levels)
	p.LevelGauge("bolt_level_write_amp", "Bytes written into the level per user byte accepted.",
		func(l LevelStats) float64 { return l.WriteAmp }, levels)
}

// WriteProm emits the full scalar counter set plus the latency summaries.
func (m *Metrics) WriteProm(p *PromWriter) {
	s := m.Snapshot()
	p.Counter("bolt_writes_total", "Committed write operations.", s.Writes)
	p.Counter("bolt_bytes_in_total", "User payload bytes accepted.", s.BytesIn)
	p.Counter("bolt_stall_slowdown_total", "L0 slowdown events (1ms write delays).", s.StallSlowdown)
	p.Counter("bolt_stall_stops_total", "Blocking write stalls (L0 stop or memtable full).", s.StallStops)
	p.Gauge("bolt_stall_seconds", "Total time writers spent stalled.", s.StallTime.Seconds())
	p.Counter("bolt_wal_records_total", "WAL records appended.", s.WALRecords)
	p.Counter("bolt_group_commits_total", "Leader group commits.", s.GroupCommits)
	p.Counter("bolt_memtable_switches_total", "Memtable rotations.", s.MemtableSwitch)
	p.Counter("bolt_memtable_flushes_total", "Memtable flushes completed.", s.MemtableFlushes)

	p.Counter("bolt_compactions_total", "Compactions completed.", s.Compactions)
	p.Counter("bolt_settled_promotions_total", "Tables promoted without rewrite by settled compactions.", s.SettledPromotions)
	p.Counter("bolt_compaction_bytes_in_total", "Bytes read by compactions.", s.CompactionBytesIn)
	p.Counter("bolt_compaction_bytes_out_total", "Bytes written by compactions.", s.CompactionBytesOut)
	p.Counter("bolt_tables_created_total", "Logical SSTables created.", s.TablesCreated)
	p.Counter("bolt_tables_deleted_total", "Logical SSTables deleted.", s.TablesDeleted)
	p.Counter("bolt_hole_punches_total", "Dead ranges reclaimed barrier-free.", s.HolePunches)
	p.Counter("bolt_hole_punch_fallbacks_total", "Punches degraded to dead-range accounting.", s.HolePunchFallbacks)
	p.Counter("bolt_seek_compactions_total", "Compactions triggered by seek misses.", s.SeekCompactions)
	p.LabeledCounter("bolt_compactions_by_reason_total", "Compactions completed, by trigger.",
		"reason", CompactionReasonNames[:], s.CompactionsByReason[:])

	p.Counter("bolt_vlog_appends_total", "Values separated into the value log at commit.", s.VLogAppends)
	p.Counter("bolt_vlog_appended_bytes_total", "Record bytes appended to the value log.", s.VLogAppendedBytes)
	p.Counter("bolt_vlog_derefs_total", "Reads that dereferenced a value-log pointer.", s.VLogDerefs)
	p.Counter("bolt_vlog_gc_passes_total", "Value-log GC passes completed.", s.VLogGCPasses)
	p.Counter("bolt_vlog_reclaimed_bytes_total", "Value-log bytes made reclaimable by GC passes.", s.VLogReclaimedBytes)
	p.Counter("bolt_vlog_gc_stuck_segments_total", "Value-log segments whose GC a rotted record header blocks.", s.VLogGCStuck)

	p.Counter("bolt_gets_total", "Point lookups.", s.Gets)
	p.Counter("bolt_get_hits_total", "Point lookups that found a value.", s.GetHits)
	p.Counter("bolt_tables_checked_total", "Tables consulted across all gets.", s.TablesChecked)
	p.Counter("bolt_bloom_skips_total", "Tables skipped by bloom filters.", s.BloomSkips)

	p.Counter("bolt_bg_retries_total", "Background attempts retried after transient failures.", s.BgRetries)
	p.Counter("bolt_bg_recovered_faults_total", "Background ops that succeeded after failed attempts.", s.BgRecoveredFaults)
	p.Counter("bolt_read_only_degradations_total", "Entries into read-only mode.", s.ReadOnlyDegradations)

	p.Counter("bolt_scrub_passes_total", "Completed background integrity scrub passes.", s.ScrubPasses)
	p.Counter("bolt_scrub_tables_verified_total", "Tables verified by the scrubber.", s.ScrubTables)
	p.Counter("bolt_scrub_bytes_read_total", "Table bytes read by the scrubber.", s.ScrubBytes)
	p.Counter("bolt_scrub_corruptions_total", "Table corruption findings (scrub and lazy detection).", s.ScrubCorruptions)
	p.Counter("bolt_quarantines_total", "Tables placed under quarantine.", s.Quarantines)
	p.Counter("bolt_salvages_total", "Salvage compactions that cleared a quarantine.", s.Salvages)
	p.Counter("bolt_salvage_skipped_blocks_total", "Unrecoverable blocks dropped by salvage compactions.", s.SalvageSkipped)

	p.Summary("bolt_write_latency_seconds", "Write operation latency.", &m.WriteLatency)
	p.Summary("bolt_read_latency_seconds", "Point-read latency.", &m.ReadLatency)
	p.Summary("bolt_scan_latency_seconds", "Scan latency.", &m.ScanLatency)
}
