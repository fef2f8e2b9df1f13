package bench

import (
	"encoding/json"
	"fmt"
	"math"

	"github.com/bolt-lsm/bolt"
	"github.com/bolt-lsm/bolt/internal/ycsb"
)

// CountRow is one configuration of a count series: what YCSB Load A cost
// the store and the device, measured in lock step, so every field repeats
// exactly from run to run and host to host.
type CountRow struct {
	Figure            string  `json:"figure"`
	Config            string  `json:"config"`
	Barriers          int64   `json:"barriers"`
	BytesWritten      int64   `json:"bytes_written"`
	WriteAmp          float64 `json:"write_amp"`
	Flushes           int64   `json:"flushes"`
	Compactions       int64   `json:"compactions"`
	SettledPromotions int64   `json:"settled_promotions"`
	// BarrierSeconds is the modelled device time the barriers cost: the
	// FLUSH latency plus the dirty bytes' transfer time of each.
	BarrierSeconds float64 `json:"barrier_seconds"`
}

// groupSweepMB is Figure 11's x-axis: BoLT's group compaction size in MB at
// paper scale.
var groupSweepMB = []int64{2, 4, 8, 16, 32, 64}

type countConfig struct {
	figure, config string
	opts           *bolt.Options
}

// countConfigs lists every count series: Fig 4a, Fig 11, the Fig 12 ladder
// and one Load A row per Fig 13 store. In lock step there is one client and
// no governor stall, so the ladder over the HyperLevelDB base equals the
// ladder over LevelDB row for row; it is listed once, beside both stock
// rows.
func countConfigs(s Scale) []countConfig {
	var cs []countConfig
	for _, mb := range sstableSweepMB {
		o := s.Options(bolt.ProfileLevelDB)
		o.SSTableBytes = s.div(mb << 20)
		cs = append(cs, countConfig{"4a", fmt.Sprintf("LevelDB SST%dMB/%d", mb, s.SizeDiv), o})
	}
	cs = append(cs, countConfig{"11", "LevelDB", s.Options(bolt.ProfileLevelDB)})
	for _, mb := range groupSweepMB {
		o := s.Options(bolt.ProfileBoLT)
		o.GroupCompactionBytes = s.div(mb << 20)
		cs = append(cs, countConfig{"11", fmt.Sprintf("BoLT GC%dMB/%d", mb, s.SizeDiv), o})
	}
	cs = append(cs,
		countConfig{"12", "stock LevelDB", s.Options(bolt.ProfileLevelDB)},
		countConfig{"12", "stock HyperLevelDB", s.Options(bolt.ProfileHyperLevelDB)})
	for _, v := range ablations(bolt.ProfileLevelDB, bolt.ProfileBoLT)[1:] {
		cs = append(cs, countConfig{"12", v.label, v.opts(s)})
	}
	for _, prof := range fig13Profiles {
		cs = append(cs, countConfig{"13", prof.String(), s.Options(prof)})
	}
	return cs
}

// countRows measures every count configuration in lock step.
func countRows(p Params) ([]CountRow, error) {
	p.lockStep = true
	var rows []CountRow
	for _, c := range countConfigs(p.Scale) {
		res, err := RunSequence(p, c.opts, ycsb.Zipfian, loadAOnly)
		if err != nil {
			return nil, fmt.Errorf("fig %s %s: %w", c.figure, c.config, err)
		}
		st, sim := res.FinalStats, res.FinalSim
		rows = append(rows, CountRow{
			Figure:            c.figure,
			Config:            c.config,
			Barriers:          sim.Barriers,
			BytesWritten:      st.BytesWritten,
			WriteAmp:          math.Round(1000*float64(st.BytesWritten)/float64(st.BytesIn)) / 1000,
			Flushes:           st.MemtableFlushes,
			Compactions:       st.Compactions,
			SettledPromotions: st.SettledPromotions,
			BarrierSeconds:    sim.BarrierStall.Seconds(),
		})
	}
	return rows, nil
}

// Counts emits every count series as one JSON document, a row per line so
// a changed count is a one-line diff. It holds nothing that varies between
// runs (no wall time, host or commit): FIGURES.json is this output at
// ScaleSmall, and the package's tests regenerate it byte for byte.
func Counts(p Params) error {
	rows, err := countRows(p)
	if err != nil {
		return err
	}
	p.printf("{\"experiment\":\"counts\",\"workload\":\"LA\",\"scale\":%q,\"ops\":%d,\"value_bytes\":%d,\"rows\":[",
		p.Scale.Name, p.Scale.LoadOps, p.Scale.ValueSize)
	sep := ""
	for _, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		p.printf("%s\n%s", sep, line)
		sep = ","
	}
	p.printf("\n]}\n")
	return nil
}
