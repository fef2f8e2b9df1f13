package metrics

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWritePromFormat(t *testing.T) {
	var m Metrics
	m.Writes.Store(42)
	m.Gets.Store(7)
	m.LevelCompactionsIn[2].Add(3)

	var b strings.Builder
	p := NewPromWriter(&b)
	m.WriteProm(p)
	p.Levels([]LevelStats{
		{Level: 0, Files: 2, Tables: 4, Bytes: 1 << 20, ReadAmp: 4},
		{Level: 1, Files: 1, Tables: 8, Bytes: 4 << 20, ReadAmp: 1, WriteAmp: 1.5},
	})
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE bolt_writes_total counter",
		"bolt_writes_total 42",
		"bolt_gets_total 7",
		`bolt_level_bytes{level="0"} 1.048576e+06`,
		`bolt_level_tables{level="1"} 8`,
		`bolt_level_write_amp{level="1"} 1.5`,
		`bolt_level_read_amp{level="0"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Every non-comment line must be "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestCounterTableRoundTrip gives every counter a distinct value through
// the table and checks that Snapshot and WriteProm each report every value
// exactly once, and that the derived totals read the counters they stand
// for.
func TestCounterTableRoundTrip(t *testing.T) {
	var m Metrics
	var want []string
	for i, c := range leaves[atomic.Int64](reflect.ValueOf(&m.Counters).Elem()) {
		v := int64(i+1) * 1001
		c.Store(v)
		want = append(want, strconv.FormatInt(v, 10))
	}
	slices.Sort(want)

	s := m.Snapshot()
	got := regexp.MustCompile(`[0-9]+`).FindAllString(fmt.Sprint(s.Counters), -1)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("Snapshot values %v, want %v", got, want)
	}
	var compactions int64
	for _, n := range s.CompactionsByReason[:CompactionValueGC] {
		compactions += n
	}
	derived := map[string]int64{
		"bolt_memtable_flushes_total": s.LevelCompactionsIn[0],
		"bolt_compactions_total":      compactions,
		"bolt_seek_compactions_total": s.CompactionsByReason[CompactionSeek],
		"bolt_vlog_gc_passes_total":   s.CompactionsByReason[CompactionValueGC],
	}

	var b strings.Builder
	m.WriteProm(NewPromWriter(&b))
	got = got[:0]
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		fields := strings.Fields(line)
		name, _, _ := strings.Cut(fields[0], "{")
		if fields[0] == "#" {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		if strings.HasSuffix(name, "_seconds") {
			v = math.Round(v * 1e9)
		}
		if d, ok := derived[name]; ok {
			if int64(v) != d {
				t.Errorf("%s = %v, want %d", name, v, d)
			}
			delete(derived, name)
			continue
		}
		got = append(got, strconv.FormatInt(int64(v), 10))
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("WriteProm values %v, want %v", got, want)
	}
	if len(derived) != 0 {
		t.Errorf("derived totals not exported: %v", derived)
	}

	names := map[string]bool{}
	valid := regexp.MustCompile(`^bolt_[a-z0-9_]+$`)
	for _, f := range families {
		if !valid.MatchString(f.name) || names[f.name] || f.help == "" {
			t.Errorf("series %q: invalid, repeated or without help", f.name)
		}
		names[f.name] = true
	}
}

type failWriter struct{ n int }

var errFull = errors.New("full")

func (w *failWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > 64 {
		return 0, errFull
	}
	return len(p), nil
}

func TestPromWriterStickyError(t *testing.T) {
	var m Metrics
	p := NewPromWriter(&failWriter{})
	m.WriteProm(p)
	if !errors.Is(p.Err(), errFull) {
		t.Fatalf("err = %v, want sticky write error", p.Err())
	}
}
