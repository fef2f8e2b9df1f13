package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchmarkManifest mirrors BENCHMARK.json. Unknown keys are an error, so
// a key the contract does not name cannot slip in.
type benchmarkManifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) *benchmarkManifest {
	t.Helper()
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if info, err := f.Stat(); err != nil || info.Size() > 64<<10 {
		t.Fatalf("BENCHMARK.json: %v, size limit is 64 KiB", err)
	}
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var m benchmarkManifest
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return &m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// The manifest must satisfy the limits it is refused for breaking.
func TestManifestIsWellFormed(t *testing.T) {
	m := readManifest(t)
	if !slices.Equal(m.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want only this directory", m.Paths)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) {
			t.Errorf("path %q", p)
		}
	}
	if n := len(m.Command); n == 0 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	// The driver makes 4 + 22 per workload runs within 3420 s; leave room
	// for set-up, drain, probe and two builds beside the timed phase.
	runs := 4 + 22*len(m.Workloads)
	if perRun := 3420 / runs; perRun < 2*m.RunSeconds {
		t.Errorf("%d runs leave %d s each, too little for a %d s timed phase", runs, perRun, m.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		name("end-to-end", d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s (unit s, lower is better) is missing")
	}
	for _, d := range m.PerLayer {
		name("per-layer", d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
		if d.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
}

func defsOf(ms []manifestMetric) []metricDef {
	var out []metricDef
	for _, m := range ms {
		d := metricDef{name: m.Name, unit: m.Unit, better: m.Better}
		if m.Bound != nil {
			d.bound = *m.Bound
		}
		out = append(out, d)
	}
	return out
}

// The manifest must name exactly what the harness defines (--list).
func TestManifestMatchesTheHarnessTables(t *testing.T) {
	m := readManifest(t)
	var names, whys []string
	for _, w := range m.Workloads {
		names, whys = append(names, w.Name), append(whys, w.Why)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name || whys[i] != w.why {
			t.Errorf("workload %d: harness has %q, manifest differs in name or why", i, w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("manifest names %d workloads, harness has %d", len(names), len(workloads))
	}
	if got := defsOf(m.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("end_to_end differs from the harness:\nmanifest %v\nharness  %v", got, endToEnd)
	}
	if got := defsOf(m.PerLayer); !slices.Equal(got, perLayer()) {
		t.Errorf("per_layer differs from the harness:\nmanifest %v\nharness  %v", got, perLayer())
	}
}

// Every run must print exactly the manifest's metrics: the end-to-end
// ones untraced, the per-layer ones traced, on every workload.
func TestRunsEmitExactlyTheManifestMetrics(t *testing.T) {
	m := readManifest(t)
	for _, w := range m.Workloads {
		for _, traced := range []bool{false, true} {
			want := m.EndToEnd
			if traced {
				want = m.PerLayer
			}
			res := smokeRun(t, w.Name, traced)
			if len(res.defs) != len(want) {
				t.Errorf("%s traced=%v: run reports %d metrics, manifest names %d", w.Name, traced, len(res.defs), len(want))
			}
			for _, d := range want {
				if _, ok := res.values[d.Name]; !ok {
					t.Errorf("%s traced=%v: manifest names %s, run did not measure it", w.Name, traced, d.Name)
				}
			}
			var out bytes.Buffer
			if err := res.print(&out); err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
				continue
			}
			var parsed resultLine
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], &parsed); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.Name, err)
			}
			if !parsed.Correct || parsed.Attempted < 1 || parsed.Failed != 0 || len(parsed.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result line %+v", w.Name, traced, parsed)
			}
			for _, d := range want {
				if got, ok := parsed.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("%s traced=%v: result line has %s as %+v, manifest unit %q", w.Name, traced, d.Name, got, d.Unit)
				}
			}
		}
	}
}
