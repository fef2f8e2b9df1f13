// Command bolt-dump inspects a database directory: the MANIFEST's version
// state (levels, logical SSTables and their physical locations, value-log
// segments with live/garbage byte accounting), per-level statistics, and —
// with -verify — a full checksum walk of every live table and every
// value-log record above each segment's reclamation watermark. With
// -events it additionally opens the engine (replaying the WAL,
// exactly like a normal open) and prints the event trace and live
// per-level statistics the engine reports.
//
// Usage:
//
//	bolt-dump -db /tmp/mydb
//	bolt-dump -db /tmp/mydb -verify
//	bolt-dump -db /tmp/mydb -events
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/bolt-lsm/bolt/internal/core"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/sstable"
	"github.com/bolt-lsm/bolt/internal/vfs"
	"github.com/bolt-lsm/bolt/internal/vlog"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bolt-dump:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dir    = flag.String("db", "", "database directory (required)")
		verify = flag.Bool("verify", false, "read every live table and verify block checksums")
		events = flag.Bool("events", false, "open the engine (replays the WAL) and print its event trace and live level stats")
	)
	flag.Parse()
	if *dir == "" {
		return fmt.Errorf("-db is required")
	}
	fs, err := vfs.NewOS(*dir)
	if err != nil {
		return err
	}
	vs, err := manifest.Load(fs)
	if err != nil {
		return fmt.Errorf("load manifest: %w", err)
	}
	defer vs.Close()

	v := vs.Current()
	fmt.Printf("database %s\n", *dir)
	fmt.Printf("  last sequence: %d\n", vs.LastSeq())
	fmt.Printf("  wal number:    %d\n", vs.LogNum())
	fmt.Printf("  tables:        %d (%s)\n", v.NumFiles(), fmtBytes(v.TotalBytes()))

	physTables := map[uint64]int{}
	for level := 0; level < manifest.NumLevels; level++ {
		files := v.Levels[level]
		if len(files) == 0 {
			continue
		}
		fmt.Printf("\nlevel %d: %d tables, %s\n", level, len(files), fmtBytes(v.LevelBytes(level)))
		// A level is listed as the sorted runs it is read as (derived at
		// open, not recorded in the MANIFEST); a sorted level is one run and
		// gets no run headers.
		runs := v.Runs(level)
		for i, run := range runs {
			if level == 0 || len(runs) > 1 {
				fmt.Printf(" run %d of %d: %d tables  [%q .. %q]\n", i+1, len(runs), len(run),
					run[0].Smallest.UserKey(), run[len(run)-1].Largest.UserKey())
			}
			for _, f := range run {
				physTables[f.PhysNum]++
				fmt.Printf("  table %6d  phys %6d @%-10d %10s  [%q .. %q]\n",
					f.Num, f.PhysNum, f.Offset, fmtBytes(f.Size),
					f.Smallest.UserKey(), f.Largest.UserKey())
			}
		}
	}

	// Physical file summary: how many logical SSTables share each file.
	var physNums []uint64
	for num := range physTables {
		physNums = append(physNums, num)
	}
	sort.Slice(physNums, func(i, j int) bool { return physNums[i] < physNums[j] })
	fmt.Printf("\nphysical files: %d\n", len(physNums))
	shared := 0
	for _, num := range physNums {
		if physTables[num] > 1 {
			shared++
		}
	}
	fmt.Printf("  holding multiple logical SSTables (compaction files): %d\n", shared)

	// Value-log segments: the manifest records each segment's durable size,
	// reclamation watermark, and compaction-accounted garbage; live bytes
	// are the derived GC-victim metric.
	if segs := v.VLogSegments(); len(segs) > 0 {
		fmt.Printf("\nvalue log: %d segments\n", len(segs))
		for _, s := range segs {
			fmt.Printf("  vlog %6d  %10s  live %10s  garbage %10s  gc@%d\n",
				s.Num, fmtBytes(s.Size), fmtBytes(s.LiveBytes()),
				fmtBytes(s.Garbage), s.GCOffset)
		}
	}

	// Per-level summary from the manifest alone (no engine open needed).
	fmt.Printf("\nper-level stats:\n")
	fmt.Printf("  %-6s %8s %8s %12s %8s\n", "level", "tables", "files", "bytes", "readamp")
	for level := 0; level < manifest.NumLevels; level++ {
		files := v.Levels[level]
		if len(files) == 0 {
			continue
		}
		phys := map[uint64]struct{}{}
		for _, f := range files {
			phys[f.PhysNum] = struct{}{}
		}
		fmt.Printf("  L%-5d %8d %8d %12s %8d\n",
			level, len(files), len(phys), fmtBytes(v.LevelBytes(level)), v.ReadAmp(level))
	}

	if *verify {
		fmt.Printf("\nverifying tables...\n")
		bad := 0
		for level := 0; level < manifest.NumLevels; level++ {
			for _, f := range v.Levels[level] {
				status := "ok"
				if v.IsQuarantined(f.Num) {
					status = "ok (quarantined in manifest)"
				}
				if err := verifyTable(fs, f); err != nil {
					bad++
					status = err.Error()
				}
				fmt.Printf("  L%d table %6d  phys %6d @%-10d %10s  %s\n",
					level, f.Num, f.PhysNum, f.Offset, fmtBytes(f.Size), status)
			}
		}
		segs := v.VLogSegments()
		if len(segs) > 0 {
			fmt.Printf("\nverifying value-log segments...\n")
		}
		for _, s := range segs {
			status := "ok"
			recs, err := verifyVLogSegment(fs, s)
			if err != nil {
				bad++
				status = err.Error()
			}
			fmt.Printf("  vlog %6d  %10s  gc@%-10d %6d records  %s\n",
				s.Num, fmtBytes(s.Size), s.GCOffset, recs, status)
		}
		if bad > 0 {
			return fmt.Errorf("%d corrupt files", bad)
		}
		fmt.Printf("all %d tables and %d value-log segments verified clean\n",
			v.NumFiles(), len(segs))
	}

	if *events {
		if err := vs.Close(); err != nil { // release the manifest so the engine can open it
			return err
		}
		if err := dumpEngineState(fs); err != nil {
			return err
		}
	}
	return nil
}

// dumpEngineState opens the engine on the directory — running the normal
// recovery path, which replays the WAL — and prints the event trace that
// open produced plus the live per-level statistics the engine computes.
func dumpEngineState(fs vfs.FS) (err error) {
	db, err := core.Open(fs, core.Config{})
	if err != nil {
		return fmt.Errorf("open engine: %w", err)
	}
	// Close syncs the WAL tail; its error is the dump's error when nothing
	// else failed first.
	defer func() {
		if cerr := db.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	fmt.Printf("\nengine event trace:\n")
	evs := db.Events()
	if len(evs) == 0 {
		fmt.Printf("  (none: open scheduled no background work)\n")
	}
	for _, e := range evs {
		fmt.Printf("  %s  %s\n", e.Time.Format("15:04:05.000"), e.String())
	}

	fmt.Printf("\nlive level stats:\n")
	fmt.Printf("  %-6s %8s %8s %12s %12s %8s %8s %8s\n",
		"level", "tables", "files", "bytes", "dead", "cmp-in", "cmp-out", "readamp")
	for _, ls := range db.LevelStats() {
		if ls.Tables == 0 && ls.CompactionsIn == 0 {
			continue
		}
		fmt.Printf("  L%-5d %8d %8d %12s %12s %8d %8d %8d\n",
			ls.Level, ls.Tables, ls.Files, fmtBytes(ls.Bytes), fmtBytes(ls.DeadBytes),
			ls.CompactionsIn, ls.CompactionsOut, ls.ReadAmp)
	}
	return nil
}

// verifyTable runs the engine's full offline scrub of one table: every
// block checksum (bloom and index included), restart structure, key
// ordering, and the footer entry count.
func verifyTable(fs vfs.FS, meta *manifest.FileMeta) error {
	f, err := fs.Open(manifest.TableFileName(meta.PhysNum))
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := sstable.OpenReader(f, meta.Num, meta.PhysNum, meta.Offset, meta.Size, nil)
	if err != nil {
		return err
	}
	return r.VerifyTable()
}

// verifyVLogSegment walks one value-log segment's records above the
// reclamation watermark, checking every header and payload CRC. Payloads
// below the watermark are expected to be punched and are not read; above
// it, a failed payload CRC is rot and a header that stops the walk short
// of the manifest-recorded size is a torn or truncated segment.
func verifyVLogSegment(fs vfs.FS, s manifest.VLogSegment) (records int, err error) {
	f, err := fs.Open(manifest.VLogFileName(s.Num))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return 0, err
	}
	rotted := 0
	valid, err := vlog.Walk(f, s.GCOffset, size, func(rec vlog.WalkRecord) error {
		records++
		if !rec.PayloadOK {
			rotted++
		}
		return nil
	})
	if err != nil {
		return records, err
	}
	if rotted > 0 {
		return records, fmt.Errorf("%d records above the GC watermark failed their payload checksum", rotted)
	}
	if valid < s.Size {
		return records, fmt.Errorf("valid records end at %d, manifest records %d durable bytes", valid, s.Size)
	}
	return records, nil
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
