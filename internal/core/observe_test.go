package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// fillDB writes enough sequential data to force flushes and compactions.
func fillDB(t *testing.T, db *DB, n int) {
	t.Helper()
	val := bytes.Repeat([]byte("v"), 256)
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%06d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestEventsEmittedDuringFlushAndCompaction(t *testing.T) {
	var lmu sync.Mutex
	var heard []events.Event
	cfg := boltTestConfig()
	cfg.EventLogSize = 4096
	cfg.EventListener = func(e events.Event) {
		lmu.Lock()
		heard = append(heard, e)
		lmu.Unlock()
	}
	db := openTestDB(t, vfs.NewMem(), cfg)
	defer db.Close()
	fillDB(t, db, 2000)

	evs := db.Events()
	count := map[events.Type]int{}
	for _, e := range evs {
		count[e.Type]++
		if e.Time.IsZero() {
			t.Fatalf("event %v has zero timestamp", e)
		}
	}
	for _, want := range []events.Type{
		events.TypeFlushStart, events.TypeFlushEnd,
		events.TypeCompactionStart, events.TypeCompactionEnd,
		events.TypeWALRotation,
	} {
		if count[want] == 0 {
			t.Errorf("no %v events in trace (have %v)", want, count)
		}
	}
	if count[events.TypeFlushStart] != count[events.TypeFlushEnd] {
		t.Errorf("unbalanced flush events: %d starts, %d ends",
			count[events.TypeFlushStart], count[events.TypeFlushEnd])
	}

	for _, e := range evs {
		switch e.Type {
		case events.TypeFlushEnd:
			if e.Outputs <= 0 || e.BytesOut <= 0 {
				t.Errorf("flush end missing output accounting: %+v", e)
			}
			if e.Barriers < 1 {
				t.Errorf("flush completed with %d barriers: %+v", e.Barriers, e)
			}
		case events.TypeCompactionEnd:
			if e.OutputLevel != e.Level+1 {
				t.Errorf("compaction end level mismatch: %+v", e)
			}
		}
	}

	lmu.Lock()
	nHeard := len(heard)
	lmu.Unlock()
	if total := db.ev.TotalEmitted(); uint64(nHeard) != total {
		t.Errorf("listener heard %d events, ring emitted %d", nHeard, total)
	}
}

func TestStallEventsCarryCause(t *testing.T) {
	cfg := boltTestConfig()
	cfg.L0CompactionTrigger = 100 // keep L0 populated
	cfg.L0SlowdownTrigger = 1
	cfg.L0StopTrigger = 0
	db := openTestDB(t, vfs.NewMem(), cfg)
	defer db.Close()
	fillDB(t, db, 400)
	// L0 now holds at least one unit, so the next governed write sleeps.
	if err := db.Put([]byte("after-stall"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	var begin, end bool
	for _, e := range db.Events() {
		switch {
		case e.Type == events.TypeStallBegin && e.Reason == "l0-slowdown":
			begin = true
		case e.Type == events.TypeStallEnd && e.Reason == "l0-slowdown":
			end = true
			if e.Dur <= 0 {
				t.Errorf("stall end without duration: %+v", e)
			}
		case e.Type == events.TypeStallBegin || e.Type == events.TypeStallEnd:
			if e.Reason == "" {
				t.Errorf("stall event without cause: %+v", e)
			}
		}
	}
	if !begin || !end {
		t.Fatalf("missing l0-slowdown stall events: begin=%v end=%v", begin, end)
	}
}

func TestLevelStats(t *testing.T) {
	db := openTestDB(t, vfs.NewMem(), boltTestConfig())
	defer db.Close()
	fillDB(t, db, 2000)

	ls := db.LevelStats()
	if len(ls) != manifest.NumLevels {
		t.Fatalf("LevelStats returned %d levels", len(ls))
	}
	var tables, files int
	var bytesTotal int64
	for i, l := range ls {
		if l.Level != i {
			t.Fatalf("level %d reported as %d", i, l.Level)
		}
		if l.Files > l.Tables {
			t.Errorf("L%d: %d files exceeds %d tables", i, l.Files, l.Tables)
		}
		if l.Tables > 0 && l.ReadAmp == 0 || l.Tables == 0 && l.ReadAmp != 0 {
			t.Errorf("L%d: read amp %d with %d tables", i, l.ReadAmp, l.Tables)
		}
		if i > 0 && l.Tables > 0 && l.ReadAmp != 1 {
			t.Errorf("sorted L%d: read amp %d", i, l.ReadAmp)
		}
		tables += l.Tables
		files += l.Files
		bytesTotal += l.Bytes
	}
	if nf := db.NumLevelFiles(); true {
		sum := 0
		for _, n := range nf {
			sum += n
		}
		if tables != sum {
			t.Errorf("LevelStats tables %d != version tables %d", tables, sum)
		}
	}
	// With compaction files many logical tables share one physical file.
	if files >= tables {
		t.Errorf("BoLT layout should share physical files: %d files, %d tables", files, tables)
	}
	if bytesTotal <= 0 {
		t.Error("no live bytes reported")
	}

	if ls[0].CompactionsIn == 0 {
		t.Error("no flush accounted into L0")
	}
	if ls[0].BytesWritten <= 0 || ls[0].WriteAmp <= 0 {
		t.Errorf("L0 write accounting empty: %+v", ls[0])
	}
	if ls[1].CompactionsIn == 0 || ls[0].CompactionsOut == 0 {
		t.Errorf("no L0->L1 compaction accounted: %+v / %+v", ls[0], ls[1])
	}
}

func TestWriteMetricsPromOutput(t *testing.T) {
	db := openTestDB(t, vfs.NewMem(), boltTestConfig())
	defer db.Close()
	fillDB(t, db, 800)

	var buf bytes.Buffer
	if err := db.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"bolt_writes_total 800",
		"bolt_level_bytes{level=\"0\"}",
		"bolt_level_write_amp{level=\"1\"}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	var names []string
	seen := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name = strings.Fields(name)[0]
			if seen[name] {
				t.Errorf("series %s declared twice", name)
			}
			seen[name] = true
			names = append(names, name)
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
	want := []string{
		"bolt_bg_recovered_faults_total", "bolt_bg_retries_total", "bolt_bloom_skips_total",
		"bolt_bytes_in_total", "bolt_cache_block_hits", "bolt_cache_block_misses",
		"bolt_cache_block_shards", "bolt_cache_block_used_bytes", "bolt_cache_fd_hits",
		"bolt_cache_fd_misses", "bolt_cache_fd_shards", "bolt_cache_fd_used_bytes",
		"bolt_cache_table_hits", "bolt_cache_table_misses", "bolt_cache_table_shards",
		"bolt_cache_table_used_bytes", "bolt_compaction_bytes_in_total", "bolt_compaction_bytes_out_total",
		"bolt_compactions_by_reason_total", "bolt_compactions_total", "bolt_dead_range_bytes",
		"bolt_events_emitted_total", "bolt_file_creates_total", "bolt_file_opens_total",
		"bolt_file_removes_total", "bolt_fsyncs_total", "bolt_get_hits_total", "bolt_gets_total",
		"bolt_group_commits_total", "bolt_hole_punch_fallbacks_total", "bolt_hole_punches_total",
		"bolt_inflight_compactions", "bolt_io_bytes_read_total", "bolt_io_bytes_written_total",
		"bolt_level_bytes", "bolt_level_bytes_read", "bolt_level_bytes_written",
		"bolt_level_compactions_in", "bolt_level_compactions_out", "bolt_level_dead_bytes",
		"bolt_level_files", "bolt_level_read_amp", "bolt_level_tables", "bolt_level_write_amp",
		"bolt_memtable_flushes_total", "bolt_memtable_switches_total", "bolt_quarantined_tables",
		"bolt_quarantines_total", "bolt_read_only_degradations_total",
		"bolt_salvage_skipped_blocks_total", "bolt_salvages_total",
		"bolt_scrub_bytes_read_total", "bolt_scrub_corruptions_total", "bolt_scrub_passes_total",
		"bolt_scrub_tables_verified_total", "bolt_seek_compactions_total", "bolt_settled_promotions_total",
		"bolt_stall_seconds", "bolt_stall_slowdown_total", "bolt_stall_stops_total",
		"bolt_table_cache_meta_bytes_total", "bolt_tables_checked_total", "bolt_tables_created_total",
		"bolt_tables_deleted_total", "bolt_vlog_appended_bytes_total", "bolt_vlog_appends_total",
		"bolt_vlog_derefs_total", "bolt_vlog_gc_passes_total", "bolt_vlog_gc_stuck_segments_total",
		"bolt_vlog_reclaimed_bytes_total", "bolt_wal_records_total",
		"bolt_writes_total",
	}
	slices.Sort(names)
	if !slices.Equal(names, want) {
		t.Errorf("series names:\n got %v\nwant %v", names, want)
	}
}
