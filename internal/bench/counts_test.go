package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/bolt-lsm/bolt"
	"github.com/bolt-lsm/bolt/internal/ycsb"
)

// TestCountsRegenerateFigures is the determinism contract: two runs of the
// count experiments at ScaleSmall — concurrent, so scheduling differs as
// much as this host allows — and the checked-in FIGURES.json are the same
// bytes. The shape checks then run on that data.
func TestCountsRegenerateFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("27 Load A runs, twice")
	}
	want, err := os.ReadFile("../../FIGURES.json")
	if err != nil {
		t.Fatal(err)
	}
	var runs [2]bytes.Buffer
	errs := make(chan error, len(runs))
	for i := range runs {
		go func(out *bytes.Buffer) { errs <- Counts(Params{Scale: ScaleSmall, Out: out}) }(&runs[i])
	}
	for range runs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i := range runs {
		if got := runs[i].Bytes(); !bytes.Equal(got, want) {
			t.Errorf("run %d differs from FIGURES.json:\n%s", i, diffLines(string(want), string(got)))
		}
	}
	if t.Failed() {
		t.Fatal("policy changed: regenerate FIGURES.json in this PR " +
			"(go run ./cmd/bolt-bench -experiment counts -scale small > FIGURES.json)")
	}

	var doc struct{ Rows []CountRow }
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	series := map[string][]CountRow{}
	for _, r := range doc.Rows {
		series[r.Figure] = append(series[r.Figure], r)
	}

	// Fig 4a: barriers roughly halve per SSTable-size doubling.
	for i, r := range series["4a"][1:] {
		prev := series["4a"][i]
		if ratio := float64(prev.Barriers) / float64(r.Barriers); ratio < 1.5 || ratio > 2.5 {
			t.Errorf("fig 4a: %s -> %s barriers %d -> %d, ratio %.2f outside [1.5, 2.5]",
				prev.Config, r.Config, prev.Barriers, r.Barriers, ratio)
		}
	}
	// Fig 11: every BoLT group size beats LevelDB, and larger groups never
	// cost more barriers.
	f11 := series["11"]
	for i, r := range f11[1:] {
		if r.Barriers >= f11[0].Barriers {
			t.Errorf("fig 11: %s has %d barriers, LevelDB %d", r.Config, r.Barriers, f11[0].Barriers)
		}
		if i > 0 && r.Barriers > f11[i].Barriers {
			t.Errorf("fig 11: barriers rise %d -> %d at %s", f11[i].Barriers, r.Barriers, r.Config)
		}
	}
	// Fig 12: group compaction is what cuts barriers, settled compaction
	// what cuts bytes.
	ladder := map[string]CountRow{}
	for _, r := range series["12"] {
		ladder[r.Config] = r
	}
	if ladder["+GC"].Barriers >= ladder["+LS"].Barriers {
		t.Errorf("fig 12: +GC %d barriers, +LS %d", ladder["+GC"].Barriers, ladder["+LS"].Barriers)
	}
	if ladder["+STL"].BytesWritten >= ladder["+GC"].BytesWritten {
		t.Errorf("fig 12: +STL wrote %d B, +GC %d", ladder["+STL"].BytesWritten, ladder["+GC"].BytesWritten)
	}
	if len(series["13"]) != len(fig13Profiles) {
		t.Errorf("fig 13: %d Load A rows for %d stores", len(series["13"]), len(fig13Profiles))
	}
}

// diffLines lists the lines of got that differ from want, both versions.
func diffLines(want, got string) (d string) {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			d += "- " + w[i] + "\n+ " + g[i] + "\n"
		}
	}
	if len(w) != len(g) {
		d += fmt.Sprintf("%d lines, want %d\n", len(g), len(w))
	}
	return d
}

// TestLadderIsBaseIndependent backs countConfigs listing the Fig 12 ladder
// once: in lock step every rung over the HyperLevelDB base costs exactly
// what it costs over LevelDB.
func TestLadderIsBaseIndependent(t *testing.T) {
	p := Params{Scale: tinyScale, lockStep: true}
	lvl := ablations(bolt.ProfileLevelDB, bolt.ProfileBoLT)
	hyper := ablations(bolt.ProfileHyperLevelDB, bolt.ProfileHyperBoLT)
	for i := 1; i < len(lvl); i++ {
		a, err := RunSequence(p, lvl[i].opts(p.Scale), ycsb.Zipfian, loadAOnly)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunSequence(p, hyper[i].opts(p.Scale), ycsb.Zipfian, loadAOnly)
		if err != nil {
			t.Fatal(err)
		}
		if a.FinalStats != b.FinalStats || a.FinalSim != b.FinalSim {
			t.Errorf("%s: LevelDB base %+v %+v\nHyperLevelDB base %+v %+v",
				lvl[i].label, a.FinalStats, a.FinalSim, b.FinalStats, b.FinalSim)
		}
	}
}
