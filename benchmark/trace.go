package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/bolt-lsm/bolt/internal/events"
)

// Tracing is outside-in: every span is recorded by the harness at a
// boundary it owns — the client loop around each core.DB call, the
// tracefs wrapper around every vfs call the engine makes, and the
// engine's EventListener for background jobs and stalls. Nothing inside
// the engine is instrumented.

// spanKind names a span's layer and operation.
type spanKind uint8

const (
	spClientRead spanKind = iota
	spClientWrite
	spClientScan
	spFlush
	spCompaction
	spStall
	spValueGC
	spWALWrite
	spWALSync
	spTableWrite
	spTableSync
	spTableRead
	spManifestWrite
	spManifestSync
	spVLogWrite
	spVLogSync
	spVLogRead
	spCreate
	spOpen
	spRemove
	spPunch
	spOtherIO
	numSpanKinds
)

var spanNames = [numSpanKinds]struct{ layer, name string }{
	spClientRead:    {"client", "read"},
	spClientWrite:   {"client", "write"},
	spClientScan:    {"client", "scan"},
	spFlush:         {"core", "flush"},
	spCompaction:    {"compaction", "job"},
	spStall:         {"core", "stall"},
	spValueGC:       {"vlog", "gc"},
	spWALWrite:      {"vfs", "wal_write"},
	spWALSync:       {"vfs", "wal_sync"},
	spTableWrite:    {"vfs", "table_write"},
	spTableSync:     {"vfs", "table_sync"},
	spTableRead:     {"vfs", "table_read"},
	spManifestWrite: {"vfs", "manifest_write"},
	spManifestSync:  {"vfs", "manifest_sync"},
	spVLogWrite:     {"vfs", "vlog_write"},
	spVLogSync:      {"vfs", "vlog_sync"},
	spVLogRead:      {"vfs", "vlog_read"},
	spCreate:        {"vfs", "create"},
	spOpen:          {"vfs", "open"},
	spRemove:        {"vfs", "remove"},
	spPunch:         {"vfs", "punch_hole"},
	spOtherIO:       {"vfs", "other"},
}

func clientSpan(c opClass) spanKind { return spClientRead + spanKind(c) }

func (k spanKind) isClient() bool { return k <= spClientScan }

func (k spanKind) isJob() bool { return k >= spFlush && k <= spValueGC && k != spStall }

// span is one timed interval. parent indexes the span that caused it, or
// is -1 for a root; it is filled in by link after the run.
type span struct {
	start, end int64
	parent     int32
	kind       spanKind
}

// kindTotals is the running count, time and bytes of one span kind.
type kindTotals struct {
	count, ns, bytes atomic.Int64
}

// spanBuf is an append-only list of spans in fixed-size chunks, so that
// recording the millionth span costs what recording the first did.
type spanBuf struct{ chunks [][]span }

const spanChunk = 1 << 16

func (b *spanBuf) add(s span) {
	if n := len(b.chunks); n == 0 || len(b.chunks[n-1]) == spanChunk {
		b.chunks = append(b.chunks, make([]span, 0, spanChunk))
	}
	last := &b.chunks[len(b.chunks)-1]
	*last = append(*last, s)
}

// tracer collects spans in memory while on is set. Spans recorded on the
// engine's goroutines (file operations, events) go to one buffer under a
// lock; each client records its own operations in a buffer of its own,
// which merge adds when the client has stopped.
type tracer struct {
	on atomic.Bool

	totals [numSpanKinds]kindTotals

	mu     sync.Mutex
	shared spanBuf
	jobs   map[uint64]int64 // job id → start, for start/end event pairs

	// spans is every recorded span, gathered by link.
	spans []span
}

func newTracer() *tracer { return &tracer{jobs: make(map[uint64]int64)} }

func (t *tracer) add(kind spanKind, start, end int64) { t.addBytes(kind, start, end, 0) }

func (t *tracer) addBytes(kind spanKind, start, end int64, n int) {
	if !t.on.Load() {
		return
	}
	t.tally(kind, end-start, n)
	t.mu.Lock()
	t.shared.add(span{start: start, end: end, parent: -1, kind: kind})
	t.mu.Unlock()
}

func (t *tracer) tally(kind spanKind, ns int64, bytes int) {
	tot := &t.totals[kind]
	tot.count.Add(1)
	tot.ns.Add(ns)
	tot.bytes.Add(int64(bytes))
}

// merge adds a stopped client's spans.
func (t *tracer) merge(b *spanBuf) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, chunk := range b.chunks {
		for _, s := range chunk {
			t.tally(s.kind, s.end-s.start, 0)
		}
		t.shared.chunks = append(t.shared.chunks, chunk)
	}
	b.chunks = nil
}

// seconds is the summed duration of every span of a kind.
func (t *tracer) seconds(kind spanKind) float64 { return float64(t.totals[kind].ns.Load()) / 1e9 }

func (t *tracer) count(kind spanKind) float64 { return float64(t.totals[kind].count.Load()) }

func (t *tracer) mb(kind spanKind) float64 {
	return float64(t.totals[kind].bytes.Load()) / (1 << 20)
}

// listen turns engine events into job and stall spans. Start and end
// events of one flush or compaction share a job id; stall and value-GC
// events carry their own duration.
func (t *tracer) listen(e events.Event) {
	at := int64(e.Time.Sub(epoch))
	switch e.Type {
	case events.TypeFlushStart, events.TypeCompactionStart:
		t.mu.Lock()
		t.jobs[e.Job] = at
		t.mu.Unlock()
	case events.TypeFlushEnd, events.TypeCompactionEnd:
		t.mu.Lock()
		start, ok := t.jobs[e.Job]
		delete(t.jobs, e.Job)
		t.mu.Unlock()
		if !ok { // started before tracing was switched on
			start = at - int64(e.Dur)
		}
		kind := spFlush
		if e.Type == events.TypeCompactionEnd {
			kind = spCompaction
		}
		t.addBytes(kind, start, at, int(e.BytesOut))
	case events.TypeStallEnd:
		t.add(spStall, at-int64(e.Dur), at)
	case events.TypeVLogGC:
		t.addBytes(spValueGC, at-int64(e.Dur), at, int(e.BytesOut))
	}
}

// mayParent says whether a span of kind parent may have caused a span of
// kind child. The harness cannot see goroutines, so a parent is chosen by
// file class and containment: WAL and value-log writes and governor stalls
// happen inside a client write; a table or value-log read (or the open
// before it) inside a client read or scan when one wholly contains it,
// else inside a flush, compaction or value-GC job; every other file
// operation inside a job. This is approximate: a compaction's read that
// happens to fall wholly inside a concurrent client read is given to that
// read.
func mayParent(child, parent spanKind) bool {
	switch child {
	case spWALWrite, spWALSync, spVLogWrite, spVLogSync, spStall:
		return parent == spClientWrite
	case spTableRead, spVLogRead, spOpen:
		return parent == spClientRead || parent == spClientScan || parent.isJob()
	default:
		return parent.isJob()
	}
}

// link sorts the spans by start time, gives each child its parent, and
// returns every span's self time: its duration minus the part of it that
// its children cover.
func (t *tracer) link() (self []int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, chunk := range t.shared.chunks {
		t.spans = append(t.spans, chunk...)
	}
	t.shared.chunks = nil
	slices.SortFunc(t.spans, func(a, b span) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(b.end, a.end) // longer first, so a parent precedes its child
	})
	self = make([]int64, len(t.spans))
	// openClients and openJobs hold the indexes of spans that have started
	// and may still be running at the sweep position.
	var openClients, openJobs []int32
	// push adds span i to an open set, dropping the ones that ended before
	// it starts, so a set never outgrows the number of concurrent spans.
	push := func(open []int32, i int) []int32 {
		live := open[:0]
		for _, j := range open {
			if t.spans[j].end >= t.spans[i].start {
				live = append(live, j)
			}
		}
		return append(live, int32(i))
	}
	containing := func(open []int32, s span) int32 {
		for _, i := range open {
			if p := t.spans[i]; mayParent(s.kind, p.kind) && p.start <= s.start && s.end <= p.end {
				return i
			}
		}
		return -1
	}
	for i := range t.spans {
		s := &t.spans[i]
		self[i] = s.end - s.start
		switch {
		case s.kind.isClient():
			openClients = push(openClients, i)
			continue
		case s.kind.isJob():
			openJobs = push(openJobs, i)
			continue
		}
		if s.parent = containing(openClients, *s); s.parent < 0 {
			s.parent = containing(openJobs, *s)
		}
	}
	// Children of one parent may overlap (two compaction workers never
	// share a parent, but a stall contains the WAL rotation it waits on),
	// so subtract the union of child intervals, not their sum. Spans are
	// in start order, so one pass with a per-parent high-water mark does.
	covered := make(map[int32]int64) // parent → end of the interval already subtracted
	for i := range t.spans {
		s := t.spans[i]
		if s.parent < 0 {
			continue
		}
		from := max(s.start, covered[s.parent])
		if s.end > from {
			self[s.parent] -= s.end - from
			covered[s.parent] = s.end
		}
	}
	return self
}

// maxOverlap returns the largest number of spans of a kind running at once.
func (t *tracer) maxOverlap(kind spanKind) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	type edge struct {
		at    int64
		delta int
	}
	var edges []edge
	for _, s := range t.spans {
		if s.kind == kind {
			edges = append(edges, edge{s.start, 1}, edge{s.end, -1})
		}
	}
	slices.SortFunc(edges, func(a, b edge) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.delta, b.delta) // an end before a start at the same instant
	})
	cur, best := 0, 0
	for _, e := range edges {
		cur += e.delta
		best = max(best, cur)
	}
	return best
}

// maxSeconds returns the longest span of a kind.
func (t *tracer) maxSeconds(kind spanKind) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var longest int64
	for _, s := range t.spans {
		if s.kind == kind {
			longest = max(longest, s.end-s.start)
		}
	}
	return float64(longest) / 1e9
}

// The trace file keeps every span of a kind that occurs at most
// traceFileFullKind times in the run, and one in traceFileSampling of a
// kind that occurs more often — client operations and block-sized table
// writes come in millions — together with the spans a kept client
// operation caused. Every span is counted in the metrics; the sampling
// only keeps the file loadable.
const (
	traceFileFullKind = 20_000
	traceFileSampling = 128
)

type spanJSON struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// writeFile writes the linked spans as one JSON document.
func (t *tracer) writeFile(path string, self []int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	keep := make([]bool, len(t.spans))
	var seen [numSpanKinds]int
	for i, s := range t.spans {
		switch {
		case s.parent >= 0 && t.spans[s.parent].kind.isClient():
			keep[i] = keep[s.parent]
		case t.totals[s.kind].count.Load() <= traceFileFullKind:
			keep[i] = true
		default:
			keep[i] = seen[s.kind]%traceFileSampling == 0
			seen[s.kind]++
		}
	}
	if _, err := fmt.Fprintf(w, "{\"sampling_of_frequent_kinds\": %d, \"spans_recorded\": %d, \"spans\": [\n", traceFileSampling, len(t.spans)); err != nil {
		return err
	}
	first := true
	for i, s := range t.spans {
		if !keep[i] {
			continue
		}
		line, err := json.Marshal(spanJSON{
			ID: i, Parent: int(s.parent),
			Layer: spanNames[s.kind].layer, Name: spanNames[s.kind].name,
			Start: s.start, End: s.end, Self: self[i],
		})
		if err != nil {
			return err
		}
		if !first {
			line = append([]byte(",\n"), line...)
		}
		first = false
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	if _, err := w.WriteString("\n]}\n"); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
