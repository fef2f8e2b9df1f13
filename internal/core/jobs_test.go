package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/bolt-lsm/bolt/internal/compaction"
	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// TestJobEventContract holds every lane and the foreground entry to the
// runner's event contract over a run with a dedicated flush lane, the
// pool, background and foreground value GC, background and foreground
// scrubs, and a CompactRange: every job-numbered start event has exactly
// one end event with the same Job and Worker, foreground work reports -1,
// and no two lanes share a worker ID.
func TestJobEventContract(t *testing.T) {
	var mu sync.Mutex
	var evs []events.Event
	cfg := vlogTestConfig()
	cfg.SeparateFlushThread = true
	cfg.MaxBackgroundCompactions = 2
	cfg.ScrubInterval = time.Millisecond
	cfg.VLogGCGarbageRatio = 1.0 // background GC takes only fully dead segments
	cfg.EventListener = func(e events.Event) {
		mu.Lock()
		evs = append(evs, e)
		mu.Unlock()
	}
	db := openTestDB(t, vfs.NewMem(), cfg)

	// Generation 0 dies whole (background GC); generation 2 overwrites half
	// of generation 1, whose segments only CompactValueLog collects.
	const n = 40
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < n; i++ {
			if gen == 2 && i%2 == 1 {
				continue
			}
			key := fmt.Sprintf("key%03d", i)
			if err := db.Put([]byte(key), bigValue(key, gen)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.CompactRange(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactValueLog(); err != nil {
		t.Fatal(err)
	}
	if err := db.Scrub(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Each event family belongs to one lane (or the foreground).
	n2 := cfg.MaxBackgroundCompactions
	lanes := map[events.Type][2]int{ // lowest, highest background worker ID
		events.TypeFlushStart: {0, 0}, events.TypeFlushEnd: {0, 0},
		events.TypeCompactionStart: {1, n2}, events.TypeCompactionEnd: {1, n2},
		events.TypeVLogGC:     {n2 + 1, n2 + 1},
		events.TypeScrubStart: {n2 + 2, n2 + 2}, events.TypeScrubEnd: {n2 + 2, n2 + 2},
	}
	ends := map[events.Type]events.Type{
		events.TypeFlushStart:      events.TypeFlushEnd,
		events.TypeCompactionStart: events.TypeCompactionEnd,
		events.TypeScrubStart:      events.TypeScrubEnd,
	}
	byJob := map[uint64][]events.Event{}
	foreground := map[events.Type]int{}
	for _, e := range evs {
		w, ok := lanes[e.Type]
		if !ok {
			continue
		}
		if e.Worker == manualWorkerID {
			foreground[e.Type]++
		} else if e.Worker < w[0] || e.Worker > w[1] {
			t.Fatalf("worker %d outside its lane [%d, %d]: %s", e.Worker, w[0], w[1], e)
		}
		if e.Type == events.TypeCompactionStart && (e.Reason == compaction.ReasonManual) != (e.Worker == manualWorkerID) {
			t.Fatalf("manual compaction and foreground worker disagree: %s", e)
		}
		byJob[e.Job] = append(byJob[e.Job], e)
	}
	// A job is one start event and its end on the same worker, or a lone
	// value-GC pass.
	for job, es := range byJob {
		switch {
		case job == 0:
			t.Fatalf("job events without a job ID: %v", es)
		case len(es) == 1 && es[0].Type == events.TypeVLogGC:
		case len(es) == 2 && ends[es[0].Type] == es[1].Type && es[0].Worker == es[1].Worker:
		default:
			t.Fatalf("job %d reports %v", job, es)
		}
	}
	for _, typ := range []events.Type{events.TypeCompactionStart, events.TypeVLogGC, events.TypeScrubStart} {
		if foreground[typ] == 0 {
			t.Errorf("no foreground %s event (worker -1)", typ)
		}
	}
}
