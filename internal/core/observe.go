package core

import (
	"io"
	"maps"

	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/metrics"
)

// Events returns the retained engine event trace, oldest first. The ring
// holds the most recent Config.EventLogSize events; use Config.EventListener
// to observe every event without loss.
func (db *DB) Events() []events.Event { return db.ev.Events() }

// InFlightCompactions returns the number of currently executing (reserved)
// compactions, manual ones included.
func (db *DB) InFlightCompactions() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.inflight.Len()
}

// QuarantinedTables returns the number of tables currently under
// corruption quarantine in the live version.
func (db *DB) QuarantinedTables() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.vs.Current().NumQuarantined()
}

// LevelStats reports the live shape of the tree: per level, the layout
// read from the current version (files, tables, bytes, dead bytes, read
// amplification) joined with the cumulative per-level compaction counters.
func (db *DB) LevelStats() []metrics.LevelStats {
	db.mu.Lock()
	v := db.vs.Current()
	v.Ref()
	// Dead bytes are keyed by physical file; copy them so the per-level
	// attribution below needs no lock.
	deadByPhys := maps.Clone(db.deadBytes)
	db.mu.Unlock()
	defer v.Unref()

	s := db.met.Snapshot()
	userBytes := s.BytesIn
	if userBytes < 1 {
		userBytes = 1
	}

	// A physical file with dead ranges is attributed to the deepest level
	// still referencing it: compaction moves data down, so that is where
	// the live remainder of the compaction file sits.
	deadLevel := make(map[uint64]int, len(deadByPhys))
	for level := 0; level < manifest.NumLevels; level++ {
		for _, f := range v.Levels[level] {
			if _, ok := deadByPhys[f.PhysNum]; ok {
				deadLevel[f.PhysNum] = level
			}
		}
	}

	out := make([]metrics.LevelStats, manifest.NumLevels)
	for level := 0; level < manifest.NumLevels; level++ {
		files := v.Levels[level]
		ls := metrics.LevelStats{
			Level:          level,
			Tables:         len(files),
			CompactionsIn:  s.LevelCompactionsIn[level],
			CompactionsOut: s.LevelCompactionsOut[level],
			BytesRead:      s.LevelBytesRead[level],
			BytesWritten:   s.LevelBytesWritten[level],
			WriteAmp:       float64(s.LevelBytesWritten[level]) / float64(userBytes),
		}
		phys := make(map[uint64]struct{}, len(files))
		for _, f := range files {
			ls.Bytes += f.Size
			phys[f.PhysNum] = struct{}{}
		}
		ls.Files = len(phys)
		for p := range phys {
			if deadLevel[p] == level {
				ls.DeadBytes += deadByPhys[p]
			}
		}
		ls.ReadAmp = v.ReadAmp(level)
		out[level] = ls
	}
	return out
}

// WriteMetrics renders the full metric surface — engine and file-level I/O
// counters, per-level stats, cache counters — in the
// Prometheus text exposition format.
func (db *DB) WriteMetrics(w io.Writer) error {
	p := metrics.NewPromWriter(w)
	db.met.WriteProm(p)
	p.Levels(db.LevelStats())

	cs := db.CacheStats()
	p.Counter("bolt_table_cache_meta_bytes_total", "Filter+index bytes read on TableCache misses.", cs.MetaBytesRead)

	// The bolt_cache_* family is the sharded-cache surface: per-cache
	// aggregated counters plus the resolved shard count, one uniform name
	// scheme across the three caches. The used_bytes sample reports the
	// cache's charge in its own units — bytes for the block cache,
	// resident entries for the table and fd caches (their capacity is a
	// count, mirroring max_open_files).
	p.Counter("bolt_cache_block_hits", "BlockCache hits across all shards.", cs.BlockHits)
	p.Counter("bolt_cache_block_misses", "BlockCache misses across all shards.", cs.BlockMisses)
	p.Gauge("bolt_cache_block_used_bytes", "BlockCache resident charge in bytes.", float64(cs.BlockUsedBytes))
	p.Gauge("bolt_cache_block_shards", "BlockCache shard count.", float64(cs.BlockShards))
	p.Counter("bolt_cache_table_hits", "TableCache hits across all shards.", cs.TableHits)
	p.Counter("bolt_cache_table_misses", "TableCache misses across all shards.", cs.TableMisses)
	p.Gauge("bolt_cache_table_used_bytes", "TableCache resident charge (open tables).", float64(cs.TableUsedEntries))
	p.Gauge("bolt_cache_table_shards", "TableCache shard count.", float64(cs.TableShards))
	if db.fdCache != nil {
		fh, fm := db.fdCache.Stats()
		p.Counter("bolt_cache_fd_hits", "FD cache hits across all shards.", fh)
		p.Counter("bolt_cache_fd_misses", "FD cache misses across all shards.", fm)
		p.Gauge("bolt_cache_fd_used_bytes", "FD cache resident charge (open handles).", float64(db.fdCache.Len()))
		p.Gauge("bolt_cache_fd_shards", "FD cache shard count.", float64(db.fdCache.Shards()))
	}
	p.Gauge("bolt_dead_range_bytes", "Dead-but-unreclaimed bytes across all files.", float64(db.DeadRangeBytes()))
	p.Gauge("bolt_inflight_compactions", "Compactions currently executing.", float64(db.InFlightCompactions()))
	p.Gauge("bolt_quarantined_tables", "Tables currently under corruption quarantine.", float64(db.QuarantinedTables()))
	p.Counter("bolt_events_emitted_total", "Engine events emitted since open.", int64(db.ev.TotalEmitted()))
	return p.Err()
}
