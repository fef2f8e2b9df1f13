package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/bolt-lsm/bolt"
	"github.com/bolt-lsm/bolt/internal/ycsb"
)

// tinyScale makes smoke tests fast: sleeping disabled, tiny ops.
var tinyScale = Scale{
	Name: "tiny", LoadOps: 3000, RunOps: 1200, BigLoadFactor: 2,
	ValueSize: 128, SizeDiv: 256, Threads: 4, TimeScale: -1,
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"small", "medium", "large", ""} {
		if _, err := ScaleByName(name); err != nil {
			t.Errorf("ScaleByName(%q): %v", name, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestOptionsScaling(t *testing.T) {
	s := ScaleMedium
	o := s.Options(bolt.ProfileBoLT)
	if o.MemTableBytes != (64<<20)/s.SizeDiv {
		t.Errorf("memtable = %d", o.MemTableBytes)
	}
	if o.SSTableBytes != (2<<20)/s.SizeDiv {
		t.Errorf("sstable = %d", o.SSTableBytes)
	}
	if o.LogicalSSTableBytes != (1<<20)/s.SizeDiv {
		t.Errorf("lsst = %d", o.LogicalSSTableBytes)
	}
	if o.GroupCompactionBytes != (64<<20)/s.SizeDiv {
		t.Errorf("group = %d", o.GroupCompactionBytes)
	}
	// Non-BoLT profiles get no logical SSTables.
	if s.Options(bolt.ProfileRocksDB).LogicalSSTableBytes != 0 {
		t.Error("rocks profile got logical sstables")
	}
	// Every profile runs on the paper's table cache, except where a figure
	// constrains it on purpose.
	for _, prof := range fig13Profiles {
		if got := s.Options(prof).TableCacheEntries; got != 32_000 {
			t.Errorf("%v: table cache = %d entries, want the paper's 32000", prof, got)
		}
	}
	big := s.LoadOps * s.BigLoadFactor
	constrained := s.constrainedTableCache(big, s.ValueSize)
	if constrained >= 100 {
		t.Errorf("constrained table cache = %d entries, not a constraint", constrained)
	}
	if got := fig15Options(s, bolt.ProfileBoLT, s.ValueSize, big).TableCacheEntries; got != constrained {
		t.Errorf("fig 15 table cache = %d entries, want the constrained %d", got, constrained)
	}
	// div floors at 4 KiB.
	tiny := Scale{SizeDiv: 1 << 30}
	if tiny.div(1<<20) != 4096 {
		t.Errorf("div floor = %d", tiny.div(1<<20))
	}
}

func TestKVAdapter(t *testing.T) {
	db, err := bolt.OpenMem(&bolt.Options{Profile: bolt.ProfileBoLT})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	a := KV{db}
	for _, k := range []string{"k1", "k2", "k3"} {
		if err := a.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if found, err := a.Get([]byte("k1")); err != nil || !found {
		t.Fatalf("Get = %v, %v", found, err)
	}
	if found, err := a.Get([]byte("absent")); err != nil || found {
		t.Fatalf("absent Get = %v, %v", found, err)
	}
	if n, err := a.Scan([]byte("k1"), 2); err != nil || n != 2 {
		t.Fatalf("Scan = %d, %v", n, err)
	}
}

func TestRunSequenceLoadOnly(t *testing.T) {
	res, err := RunSequence(Params{Scale: tinyScale}, tinyScale.Options(bolt.ProfileLevelDB), ycsb.Zipfian, loadAOnly)
	if err != nil {
		t.Fatal(err)
	}
	la, ok := res.Phases[ycsb.LoadA]
	if !ok {
		t.Fatal("no LoadA phase")
	}
	if la.Result.Ops != tinyScale.LoadOps {
		t.Fatalf("ops = %d", la.Result.Ops)
	}
	if la.Fsyncs == 0 || la.BytesWritten == 0 {
		t.Fatalf("phase deltas empty: %+v", la)
	}
	if res.Throughput(ycsb.WorkloadA) != 0 {
		t.Fatal("unwanted phase recorded")
	}
}

func TestRunSequenceFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full sequence")
	}
	res, err := RunSequence(Params{Scale: tinyScale}, tinyScale.Options(bolt.ProfileBoLT), ycsb.Zipfian, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range figWorkloads {
		ph, ok := res.Phases[w]
		if !ok {
			t.Fatalf("missing phase %s", w)
		}
		if ph.Result.Throughput <= 0 {
			t.Fatalf("phase %s throughput %f", w, ph.Result.Throughput)
		}
	}
	if res.FinalStats.Writes == 0 {
		t.Fatal("final stats empty")
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 10 {
		t.Fatalf("%d experiments", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if _, ok := ByID(e.ID); !ok {
			t.Fatalf("ByID(%s) failed", e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID accepted unknown id")
	}
}

// TestEveryExperimentRunsAtTinyScale smoke-runs every registry entry.
func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow even tiny")
	}
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(Params{Scale: tinyScale, Out: &buf}); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			// A text table carries a "# Fig …" caption; a count series is JSON.
			if !(strings.Contains(out, "#") || json.Valid(buf.Bytes())) || len(out) < 100 {
				t.Fatalf("%s produced no report:\n%s", e.ID, out)
			}
		})
	}
}
