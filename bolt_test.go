package bolt

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

func allProfiles() []Profile {
	return []Profile{
		ProfileLevelDB, ProfileLevelDB64MB, ProfileHyperLevelDB,
		ProfileRocksDB, ProfilePebblesDB, ProfileBoLT, ProfileHyperBoLT,
	}
}

// smallOpts shrinks a profile to unit-test scale while keeping its
// behavioural switches.
func smallOpts(p Profile) *Options {
	return &Options{
		Profile:              p,
		MemTableBytes:        32 << 10,
		SSTableBytes:         8 << 10,
		LogicalSSTableBytes:  4 << 10, // ignored by non-BoLT profiles
		GroupCompactionBytes: 16 << 10,
		L1MaxBytes:           64 << 10,
		VerifyInvariants:     true,
	}
}

func TestPublicAPIRoundTripAllProfiles(t *testing.T) {
	for _, p := range allProfiles() {
		t.Run(p.String(), func(t *testing.T) {
			o := smallOpts(p)
			if p != ProfileBoLT && p != ProfileHyperBoLT {
				o.LogicalSSTableBytes = 0
			}
			db, err := OpenMem(o)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < 2000; i++ {
				key := []byte(fmt.Sprintf("user%08d", i))
				if err := db.Put(key, []byte(fmt.Sprintf("value-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2000; i += 13 {
				key := []byte(fmt.Sprintf("user%08d", i))
				v, err := db.Get(key)
				if err != nil || string(v) != fmt.Sprintf("value-%d", i) {
					t.Fatalf("Get(%s) = %q, %v", key, v, err)
				}
			}
			if _, err := db.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing key: %v", err)
			}
			s := db.Stats()
			if s.Writes != 2000 || s.Fsyncs == 0 {
				t.Fatalf("stats: %+v", s)
			}
		})
	}
}

func TestPublicBatchAndIterator(t *testing.T) {
	db, err := OpenMem(smallOpts(ProfileBoLT))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	b := NewBatch()
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Put([]byte("c"), []byte("3"))
	b.Delete([]byte("b"))
	if b.Len() != 4 {
		t.Fatalf("batch len = %d", b.Len())
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	it := db.NewIterator(nil)
	defer it.Close()
	var got []string
	for ok := it.First(); ok; ok = it.Next() {
		got = append(got, string(it.Key())+"="+string(it.Value()))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint([]string{"a=1", "c=3"})
	if fmt.Sprint(got) != want {
		t.Fatalf("scan = %v", got)
	}
	if !it.SeekGE([]byte("b")) || string(it.Key()) != "c" {
		t.Fatalf("SeekGE(b) -> %q", it.Key())
	}
}

func TestPublicSnapshots(t *testing.T) {
	db, err := OpenMem(smallOpts(ProfileLevelDB))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Put([]byte("k"), []byte("v1"))
	snap := db.GetSnapshot()
	defer snap.Release()
	db.Put([]byte("k"), []byte("v2"))
	if v, err := db.GetAt([]byte("k"), snap); err != nil || string(v) != "v1" {
		t.Fatalf("snapshot read = %q, %v", v, err)
	}
	if v, _ := db.Get([]byte("k")); string(v) != "v2" {
		t.Fatalf("latest = %q", v)
	}
}

func TestOpenOnDiskPersists(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOpts(ProfileBoLT))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v"))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, smallOpts(ProfileBoLT))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 500; i += 37 {
		if _, err := db2.Get([]byte(fmt.Sprintf("k%05d", i))); err != nil {
			t.Fatalf("reopened Get: %v", err)
		}
	}
}

func TestOpenSimChargesDevice(t *testing.T) {
	db, err := OpenSim(smallOpts(ProfileLevelDB), SimDisk{TimeScale: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("user%08d", i)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Background flushes and compactions sync while they run; the device
	// counts a barrier before the engine does, so both counters are read
	// only once they have stopped.
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	sim, ok := db.SimStats()
	if !ok {
		t.Fatal("SimStats unavailable on OpenSim DB")
	}
	if sim.Barriers == 0 || sim.BytesFlushed == 0 {
		t.Fatalf("device never charged: %+v", sim)
	}
	if sim.Barriers != db.Stats().Fsyncs {
		t.Fatalf("device barriers %d != engine fsyncs %d", sim.Barriers, db.Stats().Fsyncs)
	}
	// Non-sim DBs report no sim stats.
	mem, _ := OpenMem(smallOpts(ProfileLevelDB))
	defer mem.Close()
	if _, ok := mem.SimStats(); ok {
		t.Fatal("mem DB reported sim stats")
	}
}

func TestAblationOptionsMapToConfig(t *testing.T) {
	o := &Options{Profile: ProfileBoLT}
	c := o.coreConfig()
	if c.GroupCompactionBytes == 0 || !c.SettledCompaction || !c.FDCache || c.LogicalSSTableBytes == 0 {
		t.Fatalf("BoLT profile incomplete: %+v", c)
	}
	o = &Options{Profile: ProfileBoLT, DisableGroupCompaction: true, DisableSettled: true, DisableFDCache: true}
	c = o.coreConfig()
	if c.GroupCompactionBytes != 0 || c.SettledCompaction || c.FDCache {
		t.Fatalf("ablation switches ignored: %+v", c)
	}
	if c.LogicalSSTableBytes == 0 {
		t.Fatal("+LS must retain logical SSTables")
	}
}

func TestProfileDefaults(t *testing.T) {
	cases := []struct {
		p          Profile
		sstable    int64
		governed   bool
		fragmented bool
	}{
		{ProfileLevelDB, 2 << 20, true, false},
		{ProfileLevelDB64MB, 64 << 20, true, false},
		{ProfileHyperLevelDB, 32 << 20, false, false},
		{ProfileRocksDB, 64 << 20, true, false},
		{ProfilePebblesDB, 64 << 20, false, true},
		{ProfileBoLT, 2 << 20, true, false},
		{ProfileHyperBoLT, 32 << 20, false, false},
	}
	for _, tc := range cases {
		c := (&Options{Profile: tc.p}).coreConfig()
		if c.MaxSSTableBytes != tc.sstable {
			t.Errorf("%v: sstable %d want %d", tc.p, c.MaxSSTableBytes, tc.sstable)
		}
		if (c.L0StopTrigger > 0) != tc.governed {
			t.Errorf("%v: governor mismatch", tc.p)
		}
		if c.Fragmented != tc.fragmented {
			t.Errorf("%v: fragmented mismatch", tc.p)
		}
	}
	// Profile names.
	for _, p := range allProfiles() {
		if p.String() == "" {
			t.Errorf("profile %d has no name", p)
		}
	}
}

func TestPublicCompactRangeAndRepair(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, smallOpts(ProfileBoLT))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		db.Put([]byte(fmt.Sprintf("k%06d", i)), []byte("v"))
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if db.NumLevelFiles()[0] != 0 {
		t.Fatalf("L0 not settled: %v", db.NumLevelFiles())
	}
	db.WaitIdle()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Destroy the metadata, verify Open refuses, then repair.
	if err := os.Remove(dir + "/CURRENT"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, smallOpts(ProfileBoLT)); err == nil {
		t.Fatal("Open accepted a database without CURRENT")
	}
	report, err := Repair(dir)
	if err != nil {
		t.Fatal(err)
	}
	if report.TablesRecovered == 0 {
		t.Fatalf("repair salvaged nothing: %+v", report)
	}
	db2, err := Open(dir, smallOpts(ProfileBoLT))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 1500; i += 97 {
		if _, err := db2.Get([]byte(fmt.Sprintf("k%06d", i))); err != nil {
			t.Fatalf("k%06d lost after repair: %v", i, err)
		}
	}
}

func TestPublicScrubAndIntegrityMetrics(t *testing.T) {
	o := smallOpts(ProfileBoLT)
	o.ScrubBytesPerSec = -1 // unthrottled: this is a smoke pass, not a pacing test
	db, err := OpenMem(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 1500; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%06d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Scrub(); err != nil {
		t.Fatal(err)
	}
	var m strings.Builder
	if err := db.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"bolt_scrub_passes_total 1",
		"bolt_scrub_corruptions_total 0",
		"bolt_quarantined_tables 0",
	} {
		if !strings.Contains(m.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, m.String())
		}
	}
	if !strings.Contains(m.String(), "bolt_scrub_bytes_read_total") {
		t.Fatal("scrub byte counter not exported")
	}
	// The scrub/quarantine event types render with names, not numbers.
	for _, ev := range []EventType{EventScrubStart, EventScrubEnd, EventScrubFinding, EventQuarantine, EventQuarantineClear} {
		if s := ev.String(); strings.HasPrefix(s, "event(") {
			t.Fatalf("event type %d has no name", ev)
		}
	}
	// The typed range error matches the public corruption sentinel.
	if !errors.Is(&RangeCorruptError{}, ErrCorrupt) {
		t.Fatal("RangeCorruptError does not match ErrCorrupt")
	}
}
