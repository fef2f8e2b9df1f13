package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/bolt-lsm/bolt"
)

// WatchStats prints one engine stats line for db to out every interval
// (never, when every is not positive). The returned stop function waits
// for the reporter to exit, so it is safe to call immediately before
// db.Close; call it once.
func WatchStats(db *bolt.DB, label string, every time.Duration, out io.Writer) (stop func()) {
	if every <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		var last bolt.Stats
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				s := db.Stats()
				l0 := 0
				if ls := db.LevelStats(); len(ls) > 0 {
					l0 = ls[0].Tables
				}
				fmt.Fprintf(out,
					"stats[%s]: writes=%d gets=%d fsyncs=%d(+%d) flushes=%d compactions=%d stall=%v l0=%d\n",
					label, s.Writes, s.Gets, s.Fsyncs, s.Fsyncs-last.Fsyncs,
					s.MemtableFlushes, s.Compactions,
					time.Duration(s.StallTime).Round(time.Millisecond), l0)
				last = s
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
