package compaction

import (
	"math/rand"
	"testing"

	"github.com/bolt-lsm/bolt/internal/manifest"
)

// BenchmarkPickSettled measures one settled pick on the shape the `load`
// benchmark reaches in ten seconds: some 700 candidate tables over a next
// level of 7 000, every table a 64 KiB logical SSTable. The engine runs
// this under its mutex, so ns/op is lock hold time; allocs/op is guarded by
// .github/alloc-baseline.txt.
func BenchmarkPickSettled(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var nextNum uint64
	var lv [manifest.NumLevels][]*manifest.FileMeta
	const keySpace = 40 * 7000
	lv[2] = sortedLevel(rng, &nextNum, 700, keySpace)
	lv[3] = sortedLevel(rng, &nextNum, 7000, keySpace)
	for _, files := range lv {
		for _, f := range files {
			f.Size = 64 << 10
		}
	}
	v := manifest.NewVersion(lv)
	p := &Picker{Opts: Options{
		L0Trigger: 4, L1MaxBytes: 640 << 10, Multiplier: 10,
		GroupBytes: 4 << 20, Settled: true,
	}}
	in := NewInFlight()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := p.Pick(v, Env{InFlight: in}); c == nil || c.Level != 2 {
			b.Fatalf("pick = %+v, want a level-2 settled pick", c)
		}
	}
}
