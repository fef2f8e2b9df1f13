// Package crashtest is a randomized metamorphic crash-recovery harness.
//
// Each run replays a seeded workload against the engine on a fault-
// instrumented in-memory filesystem, "crashes" by snapshotting the
// crash-durable image at a randomly chosen operation site (a Sync, a
// SyncDir, a Rename, a Write — including mid-compaction-file writes and
// the window between the data barrier and the MANIFEST barrier — or a
// hole punch), then reopens the image and verifies the metamorphic
// properties that define crash safety:
//
//   - every acknowledged write is present with its acknowledged value (or
//     a value from a newer in-flight write that may have become durable);
//   - no committed key regressed to an older value;
//   - every key and value in the store is one the workload actually wrote;
//   - the reopened database passes the version invariants and accepts
//     new writes.
//
// Torn runs additionally expose a random prefix of each file's unsynced
// tail (optionally with garbage bytes) in the image, and fall back to
// Repair when the image no longer opens.
//
// RunUnsynced checks the contract of SyncWAL=false, the paper's setting,
// where a commit is durable only once a flush covers it: no read fails,
// and every key reads a version at least as new as the one the last
// completed flush (or reopen) before the crash made durable.
package crashtest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"github.com/bolt-lsm/bolt/internal/core"
	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// tombstone marks a delete in the model's value sets.
const tombstone = "\x00\x00tombstone"

// keyPrefix namespaces workload keys so verification can recognize them.
const keyPrefix = "ct"

// Options parameterizes one crash-recovery run.
type Options struct {
	// Seed drives every random choice: the workload, the crash class, the
	// crash point, and the torn-write simulation.
	Seed int64
	// Ops is the workload length (default 300).
	Ops int
	// Profile is the engine configuration under test. Run forces SyncWAL
	// on — it verifies acknowledged durability, which is only promised for
	// synced commits — and RunUnsynced forces it off.
	Profile core.Config
	// Torn also tears unsynced tails in the crash image. Torn runs disable
	// deletes: Repair can resurrect a deleted key from a salvaged table,
	// which is a documented repair property, not a crash-safety bug.
	Torn bool
}

// Result reports what one run did.
type Result struct {
	// Fired reports whether the crash point was reached (a run whose
	// random target exceeds the workload's op count verifies the clean
	// post-close image instead).
	Fired bool
	// Class names the crash class (the op set the crash point was drawn
	// from).
	Class string
	// Repaired reports whether the image needed Repair to reopen.
	Repaired bool
}

// model is the oracle: it tracks, under its own lock, what the workload
// has been told about every key.
type model struct {
	mu sync.Mutex
	// acked holds the last acknowledged value per key (tombstone for an
	// acknowledged delete).
	acked map[string]string
	// maybe holds values (and tombstones) attempted but not yet — or
	// never — acknowledged; any of them may have become durable. Cleared
	// per key when a newer attempt is acknowledged: the newer sequence
	// number supersedes them in any durable outcome.
	maybe map[string]map[string]bool
	// tried holds every value ever attempted per key, never cleared: the
	// universe of bytes that may legitimately surface for that key in a
	// repaired image.
	tried map[string]map[string]bool
	// attempts logs every begin in order, so a crash snapshot can be
	// topped up with the attempts begun while the image was being taken.
	attempts []attempt

	// The unsynced oracle's floor. acks logs the attempt index of every
	// acknowledged write in acknowledgement order; the first covered of
	// them are durable. flushStarts holds, per flush job of the open
	// database, how many writes were acknowledged when it started;
	// flushedOK the jobs that committed, maxFlushedOK the newest of them.
	acks         []int
	covered      int
	flushStarts  map[uint64]int
	flushedOK    map[uint64]bool
	maxFlushedOK uint64
}

type attempt struct{ k, v string }

func newModel() *model {
	m := &model{
		acked: make(map[string]string),
		maybe: make(map[string]map[string]bool),
		tried: make(map[string]map[string]bool),
	}
	m.reopened(false)
	return m
}

func addVal(m map[string]map[string]bool, k, v string) {
	if m[k] == nil {
		m[k] = make(map[string]bool)
	}
	m[k][v] = true
}

// begin records an attempt before the engine sees it, so any crash
// snapshot taken during the operation already accounts for it.
func (m *model) begin(k, v string) {
	m.mu.Lock()
	addVal(m.maybe, k, v)
	addVal(m.tried, k, v)
	m.attempts = append(m.attempts, attempt{k, v})
	m.mu.Unlock()
}

// end records the acknowledgement (or leaves a failed attempt in maybe).
func (m *model) end(k, v string, ok bool) {
	if !ok {
		return
	}
	m.mu.Lock()
	m.acked[k] = v
	delete(m.maybe, k)
	// The workload is one goroutine: the write ending is the last begun.
	m.acks = append(m.acks, len(m.attempts)-1)
	m.mu.Unlock()
}

// listen is the engine's event listener; it advances the unsynced floor.
// A write acknowledged before flush job j started is in the memtable j
// flushes, in the one active during j, or already durable. Flushes retire
// memtables in order, so once j and any later flush job have committed,
// both memtables are durable.
func (m *model) listen(e events.Event) {
	switch {
	case e.Type == events.TypeFlushStart:
		m.mu.Lock()
		m.flushStarts[e.Job] = len(m.acks)
		m.mu.Unlock()
	case e.Type == events.TypeFlushEnd && e.Err == "":
		m.mu.Lock()
		m.flushedOK[e.Job] = true
		m.maxFlushedOK = max(m.maxFlushedOK, e.Job)
		for j, mark := range m.flushStarts {
			if m.flushedOK[j] && j < m.maxFlushedOK {
				m.covered = max(m.covered, mark)
				delete(m.flushStarts, j)
			}
		}
		m.mu.Unlock()
	}
}

// reopened resets the flush tracking for a new database instance (job
// numbers restart); after a successful open, recovery has flushed every
// acknowledged write, so all of them are durable.
func (m *model) reopened(ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushStarts = make(map[uint64]int)
	m.flushedOK = make(map[uint64]bool)
	m.maxFlushedOK = 0
	if ok {
		m.covered = len(m.acks)
	}
}

// modelSnapshot is a deep copy of the model at the crash point.
type modelSnapshot struct {
	acked map[string]string
	maybe map[string]map[string]bool
	tried map[string]map[string]bool
	// attempts is how many attempts had begun when the copy was taken.
	attempts int
	// log and durable are the attempt log and the durable acknowledged
	// attempts (the unsynced oracle's floor), as of the copy; log is
	// extended by addAttemptsSince.
	log     []attempt
	durable []int
}

// addAttemptsSince folds into s, as in-flight values, the attempts m has
// seen begin since s was taken.
func (s *modelSnapshot) addAttemptsSince(m *model) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, a := range m.attempts[s.attempts:] {
		addVal(s.maybe, a.k, a.v)
		addVal(s.tried, a.k, a.v)
	}
	s.log = m.attempts
}

func copySets(src map[string]map[string]bool) map[string]map[string]bool {
	out := make(map[string]map[string]bool, len(src))
	for k, set := range src {
		cp := make(map[string]bool, len(set))
		for v := range set {
			cp[v] = true
		}
		out[k] = cp
	}
	return out
}

func (m *model) snapshot() *modelSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	acked := make(map[string]string, len(m.acked))
	for k, v := range m.acked {
		acked[k] = v
	}
	// The logs are append-only: sharing their prefixes is a copy.
	return &modelSnapshot{acked: acked, maybe: copySets(m.maybe), tried: copySets(m.tried), attempts: len(m.attempts),
		log: m.attempts, durable: m.acks[:m.covered]}
}

// crashClass is a set of op sites and a rule for drawing the crash point.
type crashClass struct {
	name   string
	ops    []vfs.Op
	target func(rng *rand.Rand, ops int) int64
}

// classes covers every barrier and mutation site the engine exercises.
// Targets are drawn to land inside the expected op-count range of a run so
// most runs fire; runs whose target is never reached verify the clean
// close instead (the test asserts a minimum fired fraction).
var classes = []crashClass{
	{"sync", []vfs.Op{vfs.OpSync},
		func(rng *rand.Rand, ops int) int64 { return 1 + rng.Int63n(int64(ops)) }},
	{"write", []vfs.Op{vfs.OpWrite},
		func(rng *rand.Rand, ops int) int64 { return 1 + rng.Int63n(int64(2*ops)) }},
	{"dir-rename", []vfs.Op{vfs.OpSyncDir, vfs.OpRename},
		func(rng *rand.Rand, ops int) int64 { return 1 + rng.Int63n(6) }},
	{"punch", []vfs.Op{vfs.OpPunchHole},
		func(rng *rand.Rand, ops int) int64 { return 1 + rng.Int63n(12) }},
	{"mixed", []vfs.Op{vfs.OpCreate, vfs.OpWrite, vfs.OpReadAt, vfs.OpSync,
		vfs.OpSyncDir, vfs.OpRename, vfs.OpRemove, vfs.OpPunchHole},
		func(rng *rand.Rand, ops int) int64 { return 1 + rng.Int63n(int64(2*ops)) }},
}

// ClassCount is the number of crash classes (exported so the test can
// stratify seeds across all of them).
const ClassCount = 5

// crasher is the injector that "crashes" the run: at the target-th
// occurrence of any op in its class it snapshots the oracle and then the
// crash-durable (optionally torn) image, in that order — everything
// acknowledged in the model copy is durable in the image, never the
// reverse. It always returns nil: the surviving process is irrelevant
// after the crash point; only the image is examined.
type crasher struct {
	efs      *vfs.ErrorFS
	m        *model
	inClass  [256]bool
	torn     bool
	tornSeed int64

	mu      sync.Mutex
	seen    int64
	target  int64
	fired   bool
	img     *vfs.MemFS
	at      *modelSnapshot
	punched bool
}

func (c *crasher) Inject(op vfs.Op, name string, n int64) error {
	if !c.inClass[op] {
		return nil
	}
	c.mu.Lock()
	if c.fired {
		c.mu.Unlock()
		return nil
	}
	c.seen++
	if c.seen < c.target {
		c.mu.Unlock()
		return nil
	}
	c.fired = true
	c.mu.Unlock()

	// Model first, image second (see type comment). punched is sampled
	// with the image so repaired-image verification knows whether salvage
	// may legitimately lose tables behind a hole.
	at := c.m.snapshot()
	punched := c.efs.OpCount(vfs.OpPunchHole) > 0
	var img *vfs.MemFS
	if c.torn {
		img = c.efs.TornCrashImage(rand.New(rand.NewSource(c.tornSeed)))
	} else {
		img = c.efs.CrashImage()
	}
	// The crash point may have fired on a background goroutine, with the
	// workload still running: a write begun after the model copy can be
	// durable in the image. Such writes are in flight as far as the copy
	// is concerned (newer than anything it holds acknowledged).
	at.addAttemptsSince(c.m)
	c.mu.Lock()
	c.img = img
	c.at = at
	c.punched = punched
	c.mu.Unlock()
	return nil
}

func (c *crasher) state() (fired bool, img *vfs.MemFS, at *modelSnapshot, punched bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired, c.img, c.at, c.punched
}

// Run executes one seeded crash-recovery cycle and verifies the image.
// A non-nil error is a crash-safety violation (or a harness failure),
// never an expected storage fault.
func Run(opts Options) (*Result, error) { return run(opts, true) }

// RunUnsynced is Run with SyncWAL forced off, checked against the unsynced
// contract (see the package comment).
func RunUnsynced(opts Options) (*Result, error) { return run(opts, false) }

func run(opts Options, syncWAL bool) (*Result, error) {
	if opts.Ops <= 0 {
		opts.Ops = 300
	}
	m := newModel()
	cfg := opts.Profile
	cfg.SyncWAL = syncWAL
	cfg.VerifyInvariants = true
	cfg.EventListener = m.listen

	rng := rand.New(rand.NewSource(opts.Seed))
	class := classes[int(uint64(opts.Seed)%uint64(len(classes)))]
	efs := vfs.NewErrorFS(vfs.NewMem())
	cr := &crasher{
		efs:      efs,
		m:        m,
		torn:     opts.Torn,
		tornSeed: opts.Seed ^ 0x7e0_1dba5e5,
		target:   class.target(rng, opts.Ops),
	}
	for _, op := range class.ops {
		cr.inClass[op] = true
	}
	// Armed before the first Open: the crash point may land inside
	// database creation or a mid-workload reopen's recovery.
	efs.SetInjector(cr)

	db, err := core.Open(efs, cfg)
	if err != nil {
		return nil, fmt.Errorf("seed %d: open: %w", opts.Seed, err)
	}

	const keyspace = 160
	for i := 0; i < opts.Ops; i++ {
		if fired, _, _, _ := cr.state(); fired {
			break
		}
		key := fmt.Sprintf("%s%04d", keyPrefix, rng.Intn(keyspace))
		switch {
		case !opts.Torn && rng.Intn(12) == 0:
			m.begin(key, tombstone)
			err := db.Delete([]byte(key))
			m.end(key, tombstone, err == nil)
			if err != nil {
				return nil, fmt.Errorf("seed %d op %d: delete: %w", opts.Seed, i, err)
			}
		case rng.Intn(80) == 0:
			// Clean close + reopen while the crash point is still armed:
			// covers recovery-time barrier sites.
			_ = db.Close() //boltvet:ignore errflow -- injected faults make close errors expected; recovery is validated on reopen
			m.reopened(false)
			db, err = core.Open(efs, cfg)
			if err != nil {
				return nil, fmt.Errorf("seed %d op %d: reopen: %w", opts.Seed, i, err)
			}
			m.reopened(true)
		case rng.Intn(120) == 0:
			// A manual full compaction: the main producer of hole punches
			// (dead logical tables inside still-live compaction files), so
			// the punch crash class has sites to land on — and crash points
			// inside manual compactions get covered at the same time.
			if err := db.CompactRange(nil, nil); err != nil {
				return nil, fmt.Errorf("seed %d op %d: compact: %w", opts.Seed, i, err)
			}
		default:
			pad := 60 + rng.Intn(180)
			val := fmt.Sprintf("v-s%d-i%d-%d-%s", opts.Seed, i, rng.Int63(),
				strings.Repeat("x", pad))
			m.begin(key, val)
			err := db.Put([]byte(key), []byte(val))
			m.end(key, val, err == nil)
			if err != nil {
				return nil, fmt.Errorf("seed %d op %d: put: %w", opts.Seed, i, err)
			}
		}
	}
	_ = db.Close() //boltvet:ignore errflow -- reap background work; the crash image is already taken and verified on reopen

	res := &Result{Class: class.name}
	fired, img, at, punched := cr.state()
	res.Fired = fired
	if !fired {
		// The target was never reached: verify the clean post-close image,
		// which must match the model exactly.
		img, at, punched = efs.CrashImage(), m.snapshot(), false
	}

	repaired, err := verifyImage(opts.Seed, img, cfg, at, punched, fired)
	res.Repaired = repaired
	if err != nil {
		return res, fmt.Errorf("seed %d class %s (torn=%v, fired=%v, syncWAL=%v): %w",
			opts.Seed, class.name, opts.Torn, fired, syncWAL, err)
	}
	return res, nil
}

// verifyImage reopens a crash image (falling back to Repair when the image
// no longer opens) and checks the metamorphic crash-safety properties
// against the model snapshot taken at the crash point.
func verifyImage(seed int64, img *vfs.MemFS, cfg core.Config, at *modelSnapshot, punched, fired bool) (repaired bool, err error) {
	db, openErr := core.Open(img, cfg)
	if openErr != nil {
		if _, rerr := core.Repair(img, cfg); rerr != nil {
			if len(at.acked) == 0 && len(at.tried) == 0 {
				// Crashed before anything was written, and not even the
				// empty store skeleton survived: nothing to lose.
				return false, nil
			}
			return false, fmt.Errorf("open failed (%v) and repair failed: %w", openErr, rerr)
		}
		repaired = true
		db, err = core.Open(img, cfg)
		if err != nil {
			return repaired, fmt.Errorf("reopen after repair: %w", err)
		}
	}
	defer db.Close() //boltvet:ignore errflow -- read-only verification teardown; the properties below are the signal

	if err := db.CheckInvariants(); err != nil {
		return repaired, fmt.Errorf("invariants: %w", err)
	}

	// Properties 1+2: nothing durable is lost or regressed.
	check := checkAcked
	if !cfg.SyncWAL {
		check = checkFloor
	}
	if err := check(db, at, repaired, punched); err != nil {
		return repaired, err
	}

	// Property 3: everything in the store was actually written by the
	// workload, and iteration is ordered.
	it := db.NewIter(nil)
	var prev []byte
	for ok := it.First(); ok; ok = it.Next() {
		k, v := string(it.Key()), string(it.Value())
		if !strings.HasPrefix(k, keyPrefix) {
			_ = it.Close()
			return repaired, fmt.Errorf("foreign key %q in store", k)
		}
		if !at.tried[k][v] {
			// The clean-close image must match the model exactly; a crash
			// image may only surface attempted values.
			_ = it.Close()
			return repaired, fmt.Errorf("key %q holds never-written value %q", k, v)
		}
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			_ = it.Close()
			return repaired, fmt.Errorf("iteration order violation at %q", k)
		}
		prev = append(prev[:0], it.Key()...)
	}
	if ierr := it.Err(); ierr != nil {
		_ = it.Close()
		return repaired, fmt.Errorf("scan: %w", ierr)
	}
	if err := it.Close(); err != nil {
		return repaired, fmt.Errorf("scan close: %w", err)
	}

	// Property 4 (exactness on clean close): every acked live key is
	// present with exactly its acked value. Without SyncWAL, Close leaves
	// the WAL tail unsynced, so the clean image is a crash image too.
	if !fired && cfg.SyncWAL {
		for k, v := range at.acked {
			if v == tombstone {
				continue
			}
			got, gerr := db.Get([]byte(k), nil)
			if gerr != nil || string(got) != v {
				return repaired, fmt.Errorf("clean image key %q = %q, %v; want %q", k, got, gerr, v)
			}
		}
	}

	// Property 5: the reopened store is usable.
	probe := []byte("zz-usability-probe")
	if err := db.Put(probe, []byte("ok")); err != nil {
		return repaired, fmt.Errorf("probe put: %w", err)
	}
	if got, gerr := db.Get(probe, nil); gerr != nil || string(got) != "ok" {
		return repaired, fmt.Errorf("probe get = %q, %v", got, gerr)
	}
	return repaired, nil
}

// checkAcked is properties 1+2 of the synced contract: every acknowledged
// write is present and no key regressed below its acknowledged value.
func checkAcked(db *core.DB, at *modelSnapshot, repaired, punched bool) error {
	for k, v := range at.acked {
		got, gerr := db.Get([]byte(k), nil)
		switch {
		case gerr == nil:
			g := string(got)
			if !repaired {
				if v != tombstone && g != v && !at.maybe[k][g] {
					return fmt.Errorf("key %q = %q, want acked %q or an in-flight value", k, g, v)
				}
				if v == tombstone && !at.maybe[k][g] {
					return fmt.Errorf("deleted key %q resurfaced as %q without an in-flight write", k, g)
				}
			} else if !at.tried[k][g] {
				return fmt.Errorf("repaired key %q = %q, never written", k, g)
			}
		case errors.Is(gerr, core.ErrNotFound):
			switch {
			case v == tombstone: // acknowledged delete: absence is the contract
			case at.maybe[k][tombstone]: // an in-flight delete may be durable
			case repaired && punched:
				// Salvage legitimately loses tables chained behind a
				// punched hole; those tables held only dead data unless
				// the crash hit mid-punch — which is exactly this case.
			default:
				return fmt.Errorf("acked key %q lost (repaired=%v)", k, repaired)
			}
		default:
			return fmt.Errorf("get %q: %w", k, gerr)
		}
	}
	return nil
}

// checkFloor is properties 1+2 of the unsynced contract: every key the
// workload touched reads without error, and reads its newest durable
// acknowledged version or something newer — a later attempt, or absence
// through a later delete. A repaired image is held only to reading
// attempted values (Repair may resurface older versions), and may lose
// keys behind a punched hole (see verifyImage).
func checkFloor(db *core.DB, at *modelSnapshot, repaired, punched bool) error {
	floor := make(map[string]int)
	for _, i := range at.durable {
		floor[at.log[i].k] = i
	}
	latest := make(map[string]map[string]int) // key → value → newest attempt
	for i, a := range at.log {
		if latest[a.k] == nil {
			latest[a.k] = make(map[string]int)
		}
		latest[a.k][a.v] = i
	}
	for k, vals := range latest {
		f, durable := floor[k]
		got, err := db.Get([]byte(k), nil)
		g := tombstone
		switch {
		case err == nil:
			g = string(got)
		case !errors.Is(err, core.ErrNotFound):
			return fmt.Errorf("get %q: %w", k, err)
		}
		i, tried := vals[g]
		newer := !durable || (tried && i >= f)
		switch {
		case g != tombstone && !tried:
			return fmt.Errorf("key %q = %q, never written", k, g)
		case repaired:
			if g == tombstone && !newer && !punched {
				return fmt.Errorf("durable key %q lost (repaired)", k)
			}
		case !newer:
			return fmt.Errorf("key %q = %q, older than its durable version %q", k, g, at.log[f].v)
		}
	}
	return nil
}
