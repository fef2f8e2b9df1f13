package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// metricDef is one metric of BENCHMARK.json: its name, unit, direction and
// (end-to-end metrics only) the share of the parent's median by which it
// may worsen before a change counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a caller of the store sees, and what a later change is
// held to. The driver's contract wants every one of them from every
// workload's untraced run, never zero, and repeating within its bound over
// ten seeds on every workload, so a metric is here only if it is native to
// all six workloads and repeats on all six (README.md has the measured
// spreads of the ones that do not, which are the client.*, proc.* and
// vfs.*_amp per-layer metrics below).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"fsyncs_per_kop", "count", "lower", 0.25},
}

// callerLayer lists the per-layer metrics that are a caller's view of one
// operation class or of the process. They come from the untraced pass, so
// that no tracer cost is in them.
var callerLayer = []metricDef{
	{name: "client.sustained_ops_per_s", unit: "ops/s", better: "higher"},
	{name: "client.op_p999_us", unit: "us", better: "lower"},
	{name: "client.read_p50_us", unit: "us", better: "lower"},
	{name: "client.read_p99_us", unit: "us", better: "lower"},
	{name: "client.write_p50_us", unit: "us", better: "lower"},
	{name: "client.write_p999_us", unit: "us", better: "lower"},
	{name: "client.scan_p50_us", unit: "us", better: "lower"},
	{name: "client.scan_p95_us", unit: "us", better: "lower"},
	{name: "proc.peak_rss_mb", unit: "MiB", better: "lower"},
	{name: "vfs.write_amp", unit: "ratio", better: "lower"},
	{name: "vfs.space_amp", unit: "ratio", better: "lower"},
	{name: "core.drain_s", unit: "s", better: "lower"},
	{name: "core.allocs_per_op", unit: "count", better: "lower"},
	{name: "core.alloc_bytes_per_op", unit: "B", better: "lower"},
	{name: "core.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "core.reopen_ms", unit: "ms", better: "lower"},
}

// tracedLayer lists the per-layer metrics taken from the traced pass's
// spans and counter deltas, timed phase through quiescence.
var tracedLayer = []metricDef{
	{name: "core.write_busy_s", unit: "s", better: "lower"},
	{name: "core.read_busy_s", unit: "s", better: "lower"},
	{name: "core.scan_busy_s", unit: "s", better: "lower"},
	{name: "core.stall_s", unit: "s", better: "lower"},
	{name: "core.stall_slowdowns", unit: "count", better: "lower"},
	{name: "core.stall_stops", unit: "count", better: "lower"},
	{name: "core.flushes", unit: "count", better: "lower"},
	{name: "core.flush_busy_s", unit: "s", better: "lower"},
	{name: "core.tables_checked_per_get", unit: "count", better: "lower"},
	{name: "core.mutex_wait_s", unit: "s", better: "lower"},

	{name: "compaction.count", unit: "count", better: "lower"},
	{name: "compaction.busy_s", unit: "s", better: "lower"},
	{name: "compaction.bytes_in_mb", unit: "MiB", better: "lower"},
	{name: "compaction.bytes_out_mb", unit: "MiB", better: "lower"},
	{name: "compaction.mb_per_s", unit: "MiB/s", better: "higher"},
	{name: "compaction.max_job_s", unit: "s", better: "lower"},
	{name: "compaction.max_inflight", unit: "count", better: "higher"},
	{name: "compaction.settled_promotions", unit: "count", better: "higher"},
	{name: "compaction.seek_compactions", unit: "count", better: "lower"},
	{name: "compaction.hole_punches", unit: "count", better: "higher"},
	{name: "compaction.hole_punch_fallbacks", unit: "count", better: "lower"},

	{name: "cache.block_hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache.block_misses", unit: "count", better: "lower"},
	{name: "cache.block_used_mb", unit: "MiB", better: "lower"},
	{name: "cache.table_hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache.table_misses", unit: "count", better: "lower"},
	{name: "cache.meta_bytes_read_mb", unit: "MiB", better: "lower"},

	{name: "sstable.bloom_skip_ratio", unit: "ratio", better: "higher"},

	{name: "vfs.wal_write_s", unit: "s", better: "lower"},
	{name: "vfs.wal_writes", unit: "count", better: "lower"},
	{name: "vfs.wal_sync_s", unit: "s", better: "lower"},
	{name: "vfs.wal_syncs", unit: "count", better: "lower"},
	{name: "vfs.table_write_s", unit: "s", better: "lower"},
	{name: "vfs.table_write_mb", unit: "MiB", better: "lower"},
	{name: "vfs.table_sync_s", unit: "s", better: "lower"},
	{name: "vfs.table_syncs", unit: "count", better: "lower"},
	{name: "vfs.table_read_s", unit: "s", better: "lower"},
	{name: "vfs.table_reads", unit: "count", better: "lower"},
	{name: "vfs.table_read_mb", unit: "MiB", better: "lower"},
	{name: "vfs.manifest_sync_s", unit: "s", better: "lower"},
	{name: "vfs.manifest_syncs", unit: "count", better: "lower"},
	{name: "vfs.vlog_write_s", unit: "s", better: "lower"},
	{name: "vfs.vlog_sync_s", unit: "s", better: "lower"},
	{name: "vfs.vlog_syncs", unit: "count", better: "lower"},
	{name: "vfs.vlog_read_s", unit: "s", better: "lower"},
	{name: "vfs.vlog_reads", unit: "count", better: "lower"},
	{name: "vfs.creates", unit: "count", better: "lower"},
	{name: "vfs.opens", unit: "count", better: "lower"},
	{name: "vfs.removes", unit: "count", better: "lower"},
	{name: "vfs.punch_holes", unit: "count", better: "higher"},
	{name: "vfs.punch_s", unit: "s", better: "lower"},

	{name: "simdisk.barriers", unit: "count", better: "lower"},
	{name: "simdisk.barrier_stall_s", unit: "s", better: "lower"},
	{name: "simdisk.read_stall_s", unit: "s", better: "lower"},
	{name: "simdisk.bytes_flushed_mb", unit: "MiB", better: "lower"},
	{name: "simdisk.metadata_ops", unit: "count", better: "lower"},
	{name: "simdisk.model_s_per_mop", unit: "s", better: "lower"},

	{name: "vlog.appends", unit: "count", better: "lower"},
	{name: "vlog.appended_mb", unit: "MiB", better: "lower"},
	{name: "vlog.derefs", unit: "count", better: "lower"},
	{name: "vlog.gc_passes", unit: "count", better: "lower"},
	{name: "vlog.reclaimed_mb", unit: "MiB", better: "higher"},

	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower"},
}

// perLayer is every per-layer metric: the caller's, the traced ones, then
// the layer drivers'.
func perLayer() []metricDef {
	return slices.Concat(callerLayer, tracedLayer, driverMetrics())
}

// result is what one invocation reports: the metrics named by defs, whose
// values are in values.
type result struct {
	workload          string
	attempted, failed int64
	defs              []metricDef
	values            map[string]float64
	// notes carries, per metric, what the human-readable line adds: the
	// sample count of a latency and how many samples lie beyond it.
	notes map[string]string
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const mib = 1 << 20

// runWorkload runs one workload and returns its end-to-end metrics. With
// trace it then runs the workload a second time with the tracer on, and
// returns the per-layer metrics instead: the caller's from the first,
// untraced pass, every other from the traced one.
func runWorkload(w *workload, o runOpts, trace bool) (*result, error) {
	plain := &run{w: w, o: o}
	if err := plain.execute(); err != nil {
		return nil, err
	}
	res := &result{workload: w.name, defs: endToEnd, values: map[string]float64{}, notes: map[string]string{}}
	if err := plain.callerMetrics(res); err != nil {
		return nil, err
	}
	if !trace {
		return res, nil
	}
	traced := &run{w: w, o: o, tr: newTracer()}
	if err := traced.execute(); err != nil {
		return nil, err
	}
	res.defs = perLayer()
	if err := traced.layerMetrics(res); err != nil {
		return nil, err
	}
	res.values["trace.overhead_frac"] = 1 - div(traced.opsPerSecond(), plain.opsPerSecond())
	// Last, when no database is open: a driver must not share the machine
	// with a compaction.
	for name, value := range runLayerDrivers(o.seed, o.smoke) {
		res.values[name] = value
	}
	return res, nil
}

func (r *run) opsPerSecond() float64 { return div(float64(r.timedOps), r.ackSeconds) }

// ycsbKeyBytes is the length of a YCSB key: "user" and 19 digits.
const ycsbKeyBytes = 23

// peakRSS is the harness process's VmHWM in MiB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// callerMetrics adds what a caller of the store saw of an untraced pass:
// the end-to-end metrics and the callerLayer ones. It must run before a
// traced pass starts, because peak memory is the process's.
func (r *run) callerMetrics(res *result) error {
	// lat is the timed phase's latencies by class, every client's together,
	// sorted; ops is all of them.
	var lat [numClasses]samples
	var ops samples
	for _, c := range r.clients {
		res.attempted += c.attempted
		res.failed += c.failed
		for class := range lat {
			lat[class] = append(lat[class], c.lat[class]...)
			ops = append(ops, c.lat[class]...)
		}
	}
	slices.Sort(ops)
	for class := range lat {
		slices.Sort(lat[class])
	}
	v := res.values
	v["setup_s"] = median(r.setupSeconds)
	res.notes["setup_s"] = fmt.Sprintf("median of %d set-ups", len(r.setupSeconds))
	v["ops_per_s"] = r.opsPerSecond()
	res.notes["ops_per_s"] = fmt.Sprintf("%d timed ops by %d client(s) in %.3f s", r.timedOps, len(r.clients), r.ackSeconds)
	for _, m := range []struct {
		name  string
		lat   samples
		p     float64
		gated bool
	}{
		{"op_p50_us", ops, 0.50, true}, {"op_p99_us", ops, 0.99, true}, {"client.op_p999_us", ops, 0.999, false},
		{"client.read_p50_us", lat[classRead], 0.50, false}, {"client.read_p99_us", lat[classRead], 0.99, false},
		{"client.write_p50_us", lat[classWrite], 0.50, false}, {"client.write_p999_us", lat[classWrite], 0.999, false},
		{"client.scan_p50_us", lat[classScan], 0.50, false}, {"client.scan_p95_us", lat[classScan], 0.95, false},
	} {
		// Zero when the timed mix has no operation of the class.
		us, beyond := percentile(m.lat, m.p)
		v[m.name] = us
		res.notes[m.name] = fmt.Sprintf("n=%d, %d beyond", len(m.lat), beyond)
		// A gated percentile with too few samples beyond it is one
		// outlier's value; an ungated one says so in its note.
		if m.gated && beyond < minBeyond && !r.o.smoke {
			return fmt.Errorf("%s: only %d of %d samples beyond the percentile", m.name, beyond, len(m.lat))
		}
	}
	// The two counts cover the database's whole life in the pass, set-up
	// included, through quiescence: every workload writes in set-up or in
	// its timed phase, so neither is ever zero, and compaction put off
	// until after the last acknowledgement is still counted. Set-up's
	// manual compaction is left out.
	fsyncs, written := r.after.io.Fsyncs-r.settleFsyncs, r.after.io.BytesWritten-r.settleBytes
	v["fsyncs_per_kop"] = div(float64(fsyncs), float64(r.after.met.Writes)/1000)
	res.notes["fsyncs_per_kop"] = fmt.Sprintf("%d barriers for %d writes", fsyncs, r.after.met.Writes)
	v["vfs.write_amp"] = div(float64(written), float64(r.after.met.BytesIn))
	res.notes["vfs.write_amp"] = fmt.Sprintf("%d MiB written for %d MiB accepted", written/mib, r.after.met.BytesIn/mib)

	timed := float64(r.timedOps)
	v["client.sustained_ops_per_s"] = div(timed, r.ackSeconds+r.drainSeconds)
	rss, err := peakRSS()
	if err != nil {
		return err
	}
	v["proc.peak_rss_mb"] = rss
	v["vfs.space_amp"] = div(float64(r.spaceAllocated), float64(r.truth.records*int64(ycsbKeyBytes+r.w.valueSize)))
	v["core.drain_s"] = r.drainSeconds
	a, b := r.after.mem, r.before.mem
	v["core.allocs_per_op"] = div(float64(a.Mallocs-b.Mallocs), timed) - r.genAllocs
	v["core.alloc_bytes_per_op"] = div(float64(a.TotalAlloc-b.TotalAlloc), timed) - r.genAllocBytes
	v["core.gc_pause_ms"] = float64(a.PauseTotalNs-b.PauseTotalNs) / 1e6
	v["core.reopen_ms"] = r.reopenSeconds * 1e3
	return nil
}

// layerMetrics adds the traced pass's per-layer metrics: deltas of the
// engine's, the device's and the runtime's counters between the start of
// the timed phase and quiescence, and sums over the spans recorded in
// between.
func (r *run) layerMetrics(res *result) error {
	for _, c := range r.clients {
		res.attempted += c.attempted
		res.failed += c.failed
	}
	tr := r.tr
	self := tr.link()
	var selfByKind [numSpanKinds]int64
	for i, s := range tr.spans {
		selfByKind[s.kind] += self[i]
	}
	if err := os.MkdirAll(r.o.dir, 0o755); err != nil {
		return err
	}
	if err := tr.writeFile(fmt.Sprintf("%s/%s.trace.json", r.o.dir, r.w.name), self); err != nil {
		return err
	}

	a, b := r.after, r.before
	met := func(f func(c counters) int64) float64 { return float64(f(a) - f(b)) }
	ops := float64(r.timedOps)
	v := res.values

	v["core.write_busy_s"] = float64(selfByKind[spClientWrite]) / 1e9
	v["core.read_busy_s"] = float64(selfByKind[spClientRead]) / 1e9
	v["core.scan_busy_s"] = float64(selfByKind[spClientScan]) / 1e9
	v["core.stall_s"] = float64(a.met.StallTime-b.met.StallTime) / 1e9
	v["core.stall_slowdowns"] = met(func(c counters) int64 { return c.met.StallSlowdown })
	v["core.stall_stops"] = met(func(c counters) int64 { return c.met.StallStops })
	v["core.flushes"] = met(func(c counters) int64 { return c.met.MemtableFlushes })
	v["core.flush_busy_s"] = tr.seconds(spFlush)
	v["core.tables_checked_per_get"] = div(
		met(func(c counters) int64 { return c.met.TablesChecked }),
		met(func(c counters) int64 { return c.met.Gets }))
	v["core.mutex_wait_s"] = a.mutexWait - b.mutexWait

	v["compaction.count"] = met(func(c counters) int64 { return c.met.Compactions })
	v["compaction.busy_s"] = tr.seconds(spCompaction)
	v["compaction.bytes_in_mb"] = met(func(c counters) int64 { return c.met.CompactionBytesIn }) / mib
	v["compaction.bytes_out_mb"] = met(func(c counters) int64 { return c.met.CompactionBytesOut }) / mib
	v["compaction.mb_per_s"] = div(v["compaction.bytes_in_mb"]+v["compaction.bytes_out_mb"], v["compaction.busy_s"])
	v["compaction.max_job_s"] = tr.maxSeconds(spCompaction)
	v["compaction.max_inflight"] = float64(tr.maxOverlap(spCompaction))
	v["compaction.settled_promotions"] = met(func(c counters) int64 { return c.met.SettledPromotions })
	v["compaction.seek_compactions"] = met(func(c counters) int64 { return c.met.SeekCompactions })
	v["compaction.hole_punches"] = met(func(c counters) int64 { return c.met.HolePunches })
	v["compaction.hole_punch_fallbacks"] = met(func(c counters) int64 { return c.met.HolePunchFallbacks })

	blockHits := met(func(c counters) int64 { return c.cache.BlockHits })
	blockMisses := met(func(c counters) int64 { return c.cache.BlockMisses })
	tableHits := met(func(c counters) int64 { return c.cache.TableHits })
	tableMisses := met(func(c counters) int64 { return c.cache.TableMisses })
	v["cache.block_hit_ratio"] = div(blockHits, blockHits+blockMisses)
	v["cache.block_misses"] = blockMisses
	v["cache.block_used_mb"] = float64(a.cache.BlockUsedBytes) / mib
	v["cache.table_hit_ratio"] = div(tableHits, tableHits+tableMisses)
	v["cache.table_misses"] = tableMisses
	v["cache.meta_bytes_read_mb"] = met(func(c counters) int64 { return c.cache.MetaBytesRead }) / mib

	v["sstable.bloom_skip_ratio"] = div(
		met(func(c counters) int64 { return c.met.BloomSkips }),
		met(func(c counters) int64 { return c.met.BloomSkips + c.met.TablesChecked }))

	v["vfs.wal_write_s"] = tr.seconds(spWALWrite)
	v["vfs.wal_writes"] = tr.count(spWALWrite)
	v["vfs.wal_sync_s"] = tr.seconds(spWALSync)
	v["vfs.wal_syncs"] = tr.count(spWALSync)
	v["vfs.table_write_s"] = tr.seconds(spTableWrite)
	v["vfs.table_write_mb"] = tr.mb(spTableWrite)
	v["vfs.table_sync_s"] = tr.seconds(spTableSync)
	v["vfs.table_syncs"] = tr.count(spTableSync)
	v["vfs.table_read_s"] = tr.seconds(spTableRead)
	v["vfs.table_reads"] = tr.count(spTableRead)
	v["vfs.table_read_mb"] = tr.mb(spTableRead)
	v["vfs.manifest_sync_s"] = tr.seconds(spManifestSync)
	v["vfs.manifest_syncs"] = tr.count(spManifestSync)
	v["vfs.vlog_write_s"] = tr.seconds(spVLogWrite)
	v["vfs.vlog_sync_s"] = tr.seconds(spVLogSync)
	v["vfs.vlog_syncs"] = tr.count(spVLogSync)
	v["vfs.vlog_read_s"] = tr.seconds(spVLogRead)
	v["vfs.vlog_reads"] = tr.count(spVLogRead)
	v["vfs.creates"] = tr.count(spCreate)
	v["vfs.opens"] = tr.count(spOpen)
	v["vfs.removes"] = tr.count(spRemove)
	v["vfs.punch_holes"] = tr.count(spPunch)
	v["vfs.punch_s"] = tr.seconds(spPunch)
	v["simdisk.barriers"] = float64(a.dev.Barriers - b.dev.Barriers)
	v["simdisk.barrier_stall_s"] = (a.dev.BarrierStall - b.dev.BarrierStall).Seconds()
	v["simdisk.read_stall_s"] = (a.dev.ReadStall - b.dev.ReadStall).Seconds()
	v["simdisk.bytes_flushed_mb"] = float64(a.dev.BytesFlushed-b.dev.BytesFlushed) / mib
	v["simdisk.metadata_ops"] = float64(a.dev.MetadataOps - b.dev.MetadataOps)
	// A count, not a measurement: what the run's barriers and bytes would
	// cost on the modelled SATA SSD, per million operations.
	modelled := met(func(c counters) int64 { return c.io.Fsyncs })*modelBarrierSeconds +
		met(func(c counters) int64 { return c.io.BytesWritten })/modelWriteBandwidth
	v["simdisk.model_s_per_mop"] = div(modelled, ops/1e6)

	v["vlog.appends"] = met(func(c counters) int64 { return c.met.VLogAppends })
	v["vlog.appended_mb"] = met(func(c counters) int64 { return c.met.VLogAppendedBytes }) / mib
	v["vlog.derefs"] = met(func(c counters) int64 { return c.met.VLogDerefs })
	v["vlog.gc_passes"] = met(func(c counters) int64 { return c.met.VLogGCPasses })
	v["vlog.reclaimed_mb"] = met(func(c counters) int64 { return c.met.VLogReclaimedBytes }) / mib

	v["trace.spans"] = float64(len(tr.spans))
	return nil
}

// resultLine is the JSON object a run prints as its last line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one line per metric, by name and with its unit, and then
// the JSON object the driver reads as the last line.
func (res *result) print(w io.Writer) error {
	out := resultLine{res.failed == 0, res.attempted, res.failed, map[string]metricValue{}}
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d (failed_ops_frac %g)\n",
		res.workload, res.attempted, res.failed, div(float64(res.failed), float64(res.attempted)))
	for _, d := range res.defs {
		value, ok := res.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		note := res.notes[d.name]
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Fprintf(w, "%-34s %16.6g %-6s%s\n", d.name, value, d.unit, note)
		out.Metrics[d.name] = metricValue{value, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printList prints the workload and metric tables, one row per line.
func printList(w io.Writer) {
	for _, wl := range workloads {
		fmt.Fprintf(w, "workload\t%s\t%s\n", wl.name, wl.why)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "end_to_end\t%s\t%s\t%s\t%g\n", d.name, d.unit, d.better, d.bound)
	}
	for _, d := range perLayer() {
		fmt.Fprintf(w, "per_layer\t%s\t%s\t%s\n", d.name, d.unit, d.better)
	}
}
