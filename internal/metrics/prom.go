package metrics

import (
	"fmt"
	"io"
	"reflect"
	"time"

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
	p.LevelGauge("bolt_level_read_amp", "Sorted runs a point read may consult in the level.",
		func(l LevelStats) float64 { return float64(l.ReadAmp) }, levels)
	p.LevelGauge("bolt_level_write_amp", "Bytes written into the level per user byte accepted.",
		func(l LevelStats) float64 { return l.WriteAmp }, levels)
}

// family is one exported series of Snapshot: a field's tags and the
// number of values it holds (its array length, or 1).
type family struct {
	name, help, typ, label string
	n                      int
}

// families lists Snapshot's fields in the order leaves walks them.
var families = familiesOf(reflect.TypeFor[Snapshot]())

func familiesOf(t reflect.Type) []family {
	var out []family
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous {
			out = append(out, familiesOf(f.Type)...)
			continue
		}
		fam := family{name: f.Tag.Get("prom"), help: f.Tag.Get("help"),
			typ: f.Tag.Get("type"), label: f.Tag.Get("label"), n: 1}
		if f.Type.Kind() == reflect.Array {
			fam.n = f.Type.Len()
		}
		out = append(out, fam)
	}
	return out
}

// WriteProm emits every counter and derived total of Snapshot, then the
// latency summaries.
func (m *Metrics) WriteProm(p *PromWriter) {
	s := m.Snapshot()
	vals := leaves[int64](reflect.ValueOf(&s).Elem())
	for _, f := range families {
		p.emit(f, vals[:f.n])
		vals = vals[f.n:]
	}
	p.Summary("bolt_write_latency_seconds", "Write operation latency.", &m.WriteLatency)
	p.Summary("bolt_read_latency_seconds", "Point-read latency.", &m.ReadLatency)
	p.Summary("bolt_scan_latency_seconds", "Scan latency.", &m.ScanLatency)
}

// emit writes one family: its header, then one sample per value.
func (p *PromWriter) emit(f family, vals []*int64) {
	typ := "counter"
	if f.typ != "" {
		typ = "gauge"
	}
	p.printf("# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, typ)
	for i, v := range vals {
		labels := ""
		switch f.label {
		case "level":
			labels = fmt.Sprintf("{level=\"%d\"}", i)
		case "reason":
			labels = fmt.Sprintf("{reason=%q}", CompactionReasonNames[i])
		}
		switch f.typ {
		case "gauge":
			p.printf("%s%s %g\n", f.name, labels, float64(*v))
		case "seconds":
			p.printf("%s%s %g\n", f.name, labels, time.Duration(*v).Seconds())
		default:
			p.printf("%s%s %d\n", f.name, labels, *v)
		}
	}
}
