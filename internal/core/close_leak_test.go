package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// waitForGoroutines polls until the process goroutine count falls back to
// the baseline (runtime bookkeeping lags Close by a scheduler beat) and
// fails with the live count otherwise.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked past Close: %d live, baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseVsLaneNoLeak races Close against each lane of the job runner
// with work in flight: Close lands mid-flight without waiting for idle
// first, and neither a lane's worker slots nor the process goroutine count
// may show a survivor.
func TestCloseVsLaneNoLeak(t *testing.T) {
	for _, tc := range []struct {
		lane string
		cfg  func() Config
		load func(t *testing.T, db *DB)
	}{
		{"pool", boltTestConfig, putBurst},
		{"flush", func() Config {
			c := boltTestConfig()
			c.SeparateFlushThread = true
			return c
		}, putBurst},
		{"vlog-gc", vlogTestConfig, func(t *testing.T, db *DB) {
			// The first generation becomes garbage the GC lane picks up as
			// soon as CompactRange lets go.
			putGenerations(t, db, "key", 2, 40)
			// Close after the first pass, racing the rest.
			for deadline := time.Now().Add(5 * time.Second); db.met.Snapshot().VLogGCPasses == 0; {
				if time.Now().After(deadline) {
					t.Fatal("value GC never ran")
				}
				time.Sleep(100 * time.Microsecond)
			}
		}},
		{"scrub", func() Config {
			c := testConfig()
			c.ScrubInterval = time.Millisecond
			return c
		}, func(t *testing.T, db *DB) {
			fill(t, db, 500, 100)
			// Let the timer fire so Close races a live pass, not an idle
			// lane.
			time.Sleep(5 * time.Millisecond)
		}},
	} {
		t.Run(tc.lane, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			db := openTestDB(t, vfs.NewMem(), tc.cfg())
			tc.load(t, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db.mu.Lock()
			for i, l := range db.lanes {
				if l.busy != 0 {
					t.Errorf("lane %d has %d workers after Close", i, l.busy)
				}
			}
			db.mu.Unlock()
			waitForGoroutines(t, baseline)
		})
	}
}

// putBurst writes enough to keep flushes and compactions in flight.
func putBurst(t *testing.T, db *DB) {
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("leak-%06d", i)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
}

// handleFS counts the open handles of the files created and opened
// through it, and runs onClose, once set, as each of them closes.
type handleFS struct {
	vfs.FS
	open    atomic.Int64
	onClose atomic.Pointer[func(name string)]
}

type handleFile struct {
	vfs.File
	fs   *handleFS
	name string
}

func (fs *handleFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	return fs.track(name, f, err)
}

func (fs *handleFS) CreateLog(name string) (vfs.File, error) {
	f, err := vfs.CreateLog(fs.FS, name)
	return fs.track(name, f, err)
}

func (fs *handleFS) Open(name string) (vfs.File, error) {
	f, err := fs.FS.Open(name)
	return fs.track(name, f, err)
}

func (fs *handleFS) track(name string, f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	fs.open.Add(1)
	return &handleFile{File: f, fs: fs, name: name}, nil
}

func (f *handleFile) Close() error {
	f.fs.open.Add(-1)
	if hook := f.fs.onClose.Load(); hook != nil {
		(*hook)(f.name)
	}
	return f.File.Close()
}

// TestFailedOpenReleasesHandles: an Open that fails during recovery closes
// every file it opened — the MANIFEST that recovery rotated to, and the
// fresh WAL when the failure comes after it was created.
func TestFailedOpenReleasesHandles(t *testing.T) {
	manifestSyncs := 0
	for _, tc := range []struct {
		name string
		fail func(op vfs.Op, name string) bool
		want string
	}{
		{"wal-replay", func(op vfs.Op, name string) bool {
			return op == vfs.OpReadAt && strings.HasSuffix(name, ".log")
		}, "replay wal"},
		// The first MANIFEST sync is the rotation's; the second is the
		// recovery edit's, after the fresh WAL exists.
		{"manifest-commit", func(op vfs.Op, name string) bool {
			if kind, _, _ := manifest.ParseFileName(name); op != vfs.OpSync || kind != manifest.KindManifest {
				return false
			}
			manifestSyncs++
			return manifestSyncs >= 2
		}, "MANIFEST"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := vfs.NewMem()
			db := openTestDB(t, mem, testConfig())
			for i := 0; i < 100; i++ {
				if err := db.Put([]byte(fmt.Sprintf("key%03d", i)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			hfs := &handleFS{FS: mem}
			efs := vfs.NewErrorFS(hfs)
			efs.SetInjector(vfs.InjectorFunc(func(op vfs.Op, name string, _ int64) error {
				if tc.fail(op, name) {
					return &vfs.InjectedError{Op: op, Name: name, Permanent: true}
				}
				return nil
			}))
			db, err := Open(efs, testConfig())
			if err == nil {
				db.Close()
				t.Fatal("Open succeeded through the injected fault")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open failed elsewhere than %s: %v", tc.want, err)
			}
			if n := hfs.open.Load(); n != 0 {
				t.Fatalf("failed Open left %d handles open: %v", n, err)
			}
		})
	}
}
