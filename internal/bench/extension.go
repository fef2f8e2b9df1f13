package bench

import (
	"github.com/bolt-lsm/bolt"
	"github.com/bolt-lsm/bolt/internal/ycsb"
)

// ExtRocksBoLT is an EXTENSION beyond the paper: Section 4.1 leaves "the
// application of BoLT in RocksDB as our future work" and Section 6 argues
// the designs are complementary. Because this reproduction expresses every
// store as one engine's configuration, the combination is directly
// runnable: the RocksDB profile (64 MB tables, compact format, 20/36
// governors, 256 MB L1, dedicated flush thread) plus BoLT's four elements.
// Expected shape (the paper's conjecture): the combination beats stock
// RocksDB on write throughput and fsync count while keeping its read
// behaviour.
func ExtRocksBoLT(p Params) error {
	s := p.Scale
	variants := []struct {
		label string
		opts  func() *bolt.Options
	}{
		{"RocksDB", func() *bolt.Options { return s.Options(bolt.ProfileRocksDB) }},
		{"RocksDB+BoLT", func() *bolt.Options {
			o := s.Options(bolt.ProfileRocksDB)
			o.LogicalSSTableBytes = s.div(1 << 20)
			o.GroupCompactionBytes = s.div(64 << 20)
			o.EnableSettled = true
			o.EnableFDCache = true
			return o
		}},
	}
	p.printf("# EXTENSION — BoLT elements applied to the RocksDB profile (paper future work)\n")
	p.printf("# YCSB zipfian, LA/LE=%d ops, runs=%d ops [scale=%s]\n", s.LoadOps, s.RunOps, s.Name)
	p.printf("%-14s %10s", "config", "fsyncs(LA)")
	for _, w := range figWorkloads {
		p.printf(" %9s", w)
	}
	p.printf(" %12s\n", "written(LA)")
	for _, v := range variants {
		o := v.opts()
		res, err := RunSequence(p, o, ycsb.Zipfian, nil)
		if err != nil {
			return err
		}
		la := res.Phases[ycsb.LoadA]
		p.printf("%-14s %10d", v.label, la.Fsyncs)
		for _, w := range figWorkloads {
			p.printf(" %9.0f", res.Throughput(w))
		}
		p.printf(" %12s\n", fmtBytes(la.BytesWritten))
	}
	return nil
}
