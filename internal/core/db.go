package core

import (
	"cmp"
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bolt-lsm/bolt/internal/batch"
	"github.com/bolt-lsm/bolt/internal/cache"
	"github.com/bolt-lsm/bolt/internal/compaction"
	"github.com/bolt-lsm/bolt/internal/events"
	"github.com/bolt-lsm/bolt/internal/keys"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/memtable"
	"github.com/bolt-lsm/bolt/internal/metrics"
	"github.com/bolt-lsm/bolt/internal/sstable"
	"github.com/bolt-lsm/bolt/internal/vfs"
	"github.com/bolt-lsm/bolt/internal/vlog"
	"github.com/bolt-lsm/bolt/internal/wal"
)

// ErrNotFound is returned by Get for absent keys.
var ErrNotFound = errors.New("core: not found")

// ErrClosed is returned when operating on a closed DB.
var ErrClosed = errors.New("core: database closed")

// DB is one LSM-tree instance.
//
//boltvet:mustclose
type DB struct {
	// Immutable after Open (set before any background goroutine starts):
	cfg Config           //boltvet:guardedby none -- immutable after Open
	fs  vfs.FS           //boltvet:guardedby none -- immutable after Open (counting-wrapped)
	met *metrics.Metrics //boltvet:guardedby none -- immutable pointer; counters are atomic
	// ev is the engine event trace. Emissions happen only while mu is NOT
	// held, so the user listener never runs under the engine mutex.
	ev *events.Log //boltvet:guardedby none -- immutable after Open; Log locks itself

	blockCache *cache.BlockCache  //boltvet:guardedby none -- immutable after Open; cache locks itself
	fdCache    *cache.FDCache     //boltvet:guardedby none -- immutable after Open; cache locks itself
	tableCache *cache.TableCache  //boltvet:guardedby none -- immutable after Open; cache locks itself
	picker     *compaction.Picker //boltvet:guardedby none -- immutable after Open; stateless picker

	// vlogFDs is always constructed — even with separation off — so reads
	// can dereference pointers written by an earlier configuration.
	vlogFDs *cache.FDCache //boltvet:guardedby none -- immutable after Open; cache locks itself

	// stopc is closed once by Close (under mu, which serializes against
	// double close); retry backoffs and the scrub throttle select on it
	// without mu so shutdown never waits out a sleep.
	stopc chan struct{} //boltvet:guardedby none -- immutable after Open; channel close is its own synchronization

	// mu guards all mutable state below except where noted.
	mu   sync.Mutex
	cond *sync.Cond // background state changes (flush/compaction done)

	mem  *memtable.MemTable   //boltvet:guardedby mu
	imm  *memtable.MemTable   //boltvet:guardedby mu
	walW *wal.Writer          //boltvet:guardedby mu
	vs   *manifest.VersionSet //boltvet:guardedby mu

	// Value log (WAL-time key-value separation). vlogW exists only while
	// valueSeparation() is on and points at the active segment. The leader
	// captures vlogW under mu and appends off-mu, exactly like walW; a
	// flush may Sync it meanwhile, which the writer's atomic size and
	// synced length allow. Retired segments' writers wait on the
	// after-flush list for the flush that syncs and records them.
	vlogW *vlog.Writer //boltvet:guardedby mu
	// vlogGCStuck suppresses segments whose GC cannot advance (rotted
	// record header mid-segment).
	vlogGCStuck map[uint64]bool //boltvet:guardedby mu

	// visibleSeq is the highest sequence number visible to reads; it is
	// atomic so the read path can snapshot it without mu.
	visibleSeq atomic.Uint64 //boltvet:guardedby atomic

	// The writer queue (write.go): an intrusive list through dbWriter.next
	// from its head, the leader, to its tail.
	writers    *dbWriter //boltvet:guardedby mu
	lastWriter *dbWriter //boltvet:guardedby mu

	snapshots *list.List //boltvet:guardedby mu -- of keys.Seq, ascending: each snapshot, followed by the iterators opened on it

	// manifestMu serializes MANIFEST commits; acquired without mu held.
	manifestMu sync.Mutex

	// The background-job runner (jobs.go). lanes holds each lane's worker
	// slots; running counts live jobs, background and foreground — the one
	// drain counter Close and WaitIdle wait on. flushActive is the claim on
	// the pending flush, gcActive the claim on the one value-GC pass.
	// manualActive stops compaction picks and value-GC passes (flushes keep
	// running) while CompactRange runs. scrubDue marks a background scrub
	// pass due; scrubTimer sets it every interval.
	lanes        [numLanes]lane //boltvet:guardedby mu
	running      int            //boltvet:guardedby mu
	flushActive  bool           //boltvet:guardedby mu
	gcActive     bool           //boltvet:guardedby mu
	manualActive bool           //boltvet:guardedby mu
	scrubDue     bool           //boltvet:guardedby mu
	scrubTimer   *time.Timer    //boltvet:guardedby mu
	// inflight registers the footprint of every executing compaction so
	// concurrent picks stay conflict-free; guarded by mu like the rest.
	inflight *compaction.InFlight //boltvet:guardedby mu
	// nextJobID numbers jobs for event correlation.
	nextJobID uint64 //boltvet:guardedby mu
	closed    bool   //boltvet:guardedby mu

	// roCause, once set, marks the degraded mode entered when background
	// work exhausts its retry budget or hits a permanent fault (see
	// bgerror.go): reads keep serving the last committed state, writes and
	// manual compactions fail with a ReadOnlyError wrapping it.
	roCause error //boltvet:guardedby mu
	// fails counts consecutive failed background jobs per kind, driving
	// the retry backoff; reset on the kind's next success.
	fails [numJobKinds]int //boltvet:guardedby mu

	// deadBytes totals, per physical file, the bytes whose hole punch the
	// backend could not perform: logically dead but not reclaimed.
	deadBytes map[uint64]int64 //boltvet:guardedby mu

	seekCompactFile  *manifest.FileMeta //boltvet:guardedby mu
	seekCompactLevel int                //boltvet:guardedby mu

	// quarantinePending dedups concurrent quarantine commits for the same
	// table while mu is released for the MANIFEST write.
	quarantinePending map[uint64]bool //boltvet:guardedby mu

	// physRefs counts the live logical tables of each physical file.
	physRefs map[uint64]int //boltvet:guardedby mu

	// The deferred-work path (reclaim.go): work waiting for a flush to log
	// it, and file reclamations waiting for readers.
	afterFlush []afterFlush //boltvet:guardedby mu
	reclaims   []reclaim    //boltvet:guardedby mu
}

// Open opens (creating if necessary) a database on fs.
func Open(fs vfs.FS, cfg Config) (*DB, error) {
	clamps := cfg.clampWarnings()
	cfg.ApplyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	db := &DB{
		cfg:               cfg,
		met:               &metrics.Metrics{},
		ev:                events.NewLog(cfg.EventLogSize, cfg.EventListener),
		mem:               memtable.New(),
		snapshots:         list.New(),
		physRefs:          make(map[uint64]int),
		deadBytes:         make(map[uint64]int64),
		inflight:          compaction.NewInFlight(),
		quarantinePending: make(map[uint64]bool),
		vlogGCStuck:       make(map[uint64]bool),
		stopc:             make(chan struct{}),
	}
	db.lanes = newLanes(&db.cfg)
	db.cond = sync.NewCond(&db.mu)
	db.fs = newCountingFS(wrapInvariantFS(fs), db.met)

	for _, w := range clamps {
		db.ev.Emit(events.Event{Type: events.TypeConfigClamp, Reason: w})
	}

	db.blockCache = cache.NewBlockCache(cfg.BlockCacheBytes, cfg.CacheShards)
	if cfg.FDCache {
		db.fdCache = cache.NewFDCache(db.fs, cfg.TableCacheEntries, cfg.CacheShards)
	}
	db.tableCache = cache.NewTableCache(db.fs, cfg.TableCacheEntries, cfg.CacheShards, db.fdCache, db.blockCache, db.sstConfig())
	// The value-log FD cache exists regardless of ValueThreshold: a
	// database written with separation on must stay readable after the
	// threshold is turned off.
	db.vlogFDs = cache.NewFDCacheNamed(db.fs, cfg.TableCacheEntries, cfg.CacheShards, manifest.VLogFileName)
	db.picker = &compaction.Picker{Opts: compaction.Options{
		L0Trigger:      cfg.L0CompactionTrigger,
		L1MaxBytes:     cfg.L1MaxBytes,
		Multiplier:     cfg.LevelMultiplier,
		GroupBytes:     cfg.GroupCompactionBytes,
		Settled:        cfg.SettledCompaction,
		Fragmented:     cfg.Fragmented,
		GuardBaseBits:  cfg.GuardBaseBits,
		GuardShiftBits: cfg.GuardShiftBits,
	}}

	if err := db.recover(); err != nil {
		// Release what recover opened: the value-log and WAL writers, and
		// the MANIFEST Recover rotated to.
		if db.vlogW != nil {
			err = errors.Join(err, db.vlogW.Close())
		}
		if db.walW != nil {
			err = errors.Join(err, db.walW.Close())
		}
		if db.vs != nil {
			err = errors.Join(err, db.vs.Close())
		}
		db.tableCache.Close()
		if db.fdCache != nil {
			db.fdCache.Close()
		}
		db.vlogFDs.Close()
		return nil, err
	}

	db.mu.Lock()
	if cfg.ScrubInterval > 0 {
		// The timer only marks a pass due; the scrub lane runs it.
		db.scrubTimer = time.AfterFunc(cfg.ScrubInterval, func() {
			db.mu.Lock()
			db.scrubDue = true
			db.maybeScheduleWorkLocked()
			db.mu.Unlock()
		})
	}
	db.maybeScheduleWorkLocked()
	db.mu.Unlock()
	return db, nil
}

func (db *DB) sstConfig() sstable.Config {
	return sstable.Config{
		BlockSize:       db.cfg.BlockSize,
		EntryPadding:    db.cfg.EntryPadding,
		BloomBitsPerKey: db.cfg.BloomBitsPerKey,
	}
}

// recover loads or creates the on-disk state.
//
//boltvet:ignore guardedby -- open-time initialization; no background goroutine exists until Open returns
func (db *DB) recover() error {
	names, err := db.fs.List()
	if err != nil {
		return fmt.Errorf("core: list db dir: %w", err)
	}
	hasCurrent := false
	hasData := false
	for _, n := range names {
		if n == manifest.CurrentFileName {
			hasCurrent = true
		}
		if kind, _, ok := manifest.ParseFileName(n); ok &&
			(kind == manifest.KindTable || kind == manifest.KindLog) {
			hasData = true
		}
	}
	if hasCurrent {
		db.vs, err = manifest.Recover(db.fs)
	} else if hasData {
		// Table or log files without CURRENT: creating a fresh database
		// here would garbage-collect them as orphans. Refuse and point at
		// Repair instead.
		return fmt.Errorf("core: database has table/log files but no CURRENT (%w); run Repair",
			manifest.ErrCorrupt)
	} else {
		db.vs, err = manifest.Create(db.fs)
	}
	if err != nil {
		return err
	}

	// Value-log segments on disk: mark their numbers used and index them
	// for pointer validation during WAL replay.
	vlogOnDisk := make(map[uint64]bool)
	for _, n := range names {
		if kind, num, ok := manifest.ParseFileName(n); ok && kind == manifest.KindValueLog {
			vlogOnDisk[num] = true
			db.vs.MarkFileNumUsed(num)
		}
	}
	// validLenOf walks a segment's record framing from offset zero
	// (tolerating GC-punched payloads, whose headers survive) and caches
	// the length of its parseable prefix. The commit barrier syncs the
	// value log before the WAL record, so a WAL batch whose pointers all
	// land inside this prefix was fully durable when acknowledged, and a
	// pointer past it belongs to a write that was never acknowledged. A
	// segment that cannot be read fails recovery instead: guessing its
	// prefix short would drop acknowledged writes and retire their WAL.
	vlogValid := make(map[uint64]int64)
	validLenOf := func(seg uint64) (int64, error) {
		if v, ok := vlogValid[seg]; ok || !vlogOnDisk[seg] {
			return v, nil
		}
		var err error
		vlogValid[seg], err = vlogValidLength(db.fs, manifest.VLogFileName(seg))
		return vlogValid[seg], err
	}

	// Replay WALs at or above the recorded log number, in order.
	var logNums []uint64
	for _, n := range names {
		if kind, num, ok := manifest.ParseFileName(n); ok && kind == manifest.KindLog && num >= db.vs.LogNum() {
			logNums = append(logNums, num)
		}
	}
	sort.Slice(logNums, func(i, j int) bool { return logNums[i] < logNums[j] })
	maxSeq := db.vs.LastSeq()
	replayed := memtable.New()
	refSegs := make(map[uint64]bool)
	errStopReplay := errors.New("core: stop wal replay")
	stopped := false
	for _, num := range logNums {
		if stopped {
			break
		}
		db.vs.MarkFileNumUsed(num)
		last, err := wal.Replay(db.fs, manifest.LogFileName(num), func(b *batch.Batch) error {
			// Pre-validate, then apply: a batch lands in the memtable either
			// whole or not at all. An unresolvable pointer stops replay here,
			// dropping this batch and everything after it — all provably
			// unacknowledged (see validLenOf).
			resolvable := true
			if err := b.Iterate(func(_ keys.Seq, kind keys.Kind, _, value []byte) error {
				if kind != keys.KindSetPtr || !resolvable {
					return nil
				}
				p, err := vlog.DecodePointer(value)
				if err != nil {
					resolvable = false
					return nil
				}
				valid, err := validLenOf(p.Seg)
				resolvable = p.Off+p.Len <= valid
				return err
			}); err != nil {
				return err
			}
			if !resolvable {
				stopped = true
				return errStopReplay
			}
			return b.Iterate(func(seq keys.Seq, kind keys.Kind, key, value []byte) error {
				if kind == keys.KindSetPtr {
					if p, perr := vlog.DecodePointer(value); perr == nil {
						refSegs[p.Seg] = true
					}
				}
				replayed.Add(seq, kind, key, value)
				return nil
			})
		})
		if err != nil && !errors.Is(err, errStopReplay) {
			return fmt.Errorf("core: replay wal %d: %w", num, err)
		}
		// When replay stopped, last covers only the batches before the
		// unresolvable one — wal.Replay tallies a batch's sequences after
		// the callback succeeds — which is exactly the applied set.
		if last > maxSeq {
			maxSeq = last
		}
	}
	db.visibleSeq.Store(maxSeq)
	db.vs.SetLastSeq(maxSeq)

	// Fresh WAL for new writes.
	db.walW, err = wal.NewWriter(db.fs, manifest.LogFileName(db.vs.NextFileNum()))
	if err != nil {
		return err
	}

	// Fresh active value-log segment when separation is on. Allocated
	// before the recovery LogAndApply so the number is burned durably and
	// can never collide after another crash.
	if db.cfg.valueSeparation() {
		num := db.vs.NextFileNum()
		db.vlogW, err = vlog.NewWriter(db.fs, manifest.VLogFileName(num), num)
		if err != nil {
			return err
		}
	}

	// Persist replayed data (if any) and advance the log pointer so old
	// WALs become obsolete; this also covers the fresh-DB case where it
	// just records the first log number. Segments referenced by replayed
	// pointers enter the version here with their walked valid length —
	// possibly longer than the size a pre-crash flush recorded (Size
	// merges by max), never shorter.
	edit := &manifest.VersionEdit{}
	edit.SetLogNum(db.walW.Num())
	for seg := range refSegs {
		edit.AddVLogSegment(manifest.VLogSegmentEdit{Num: seg, Size: vlogValid[seg]})
	}
	if !replayed.Empty() {
		metas, err := db.writeTables(replayed.NewIter(), 0)
		if err != nil {
			return fmt.Errorf("core: flush recovered wal: %w", err)
		}
		for _, m := range metas {
			edit.AddFile(0, m)
		}
	}
	if err := db.vs.LogAndApply(edit); err != nil {
		return err
	}

	// Rebuild physical-file reference counts from the live version.
	v := db.vs.Current()
	for level := range v.Levels {
		for _, f := range v.Levels[level] {
			db.physRefs[f.PhysNum]++
		}
	}

	// Garbage-collect orphans: tables from uncommitted compactions, old
	// WALs, temp files, stale manifests.
	db.removeOrphans()
	return nil
}

// removeOrphans deletes files not referenced by the recovered state.
//
//boltvet:ignore guardedby -- called only from recover, before concurrency starts
func (db *DB) removeOrphans() {
	names, err := db.fs.List()
	if err != nil {
		return
	}
	for _, n := range names {
		kind, num, ok := manifest.ParseFileName(n)
		if !ok {
			continue
		}
		switch kind {
		case manifest.KindTable:
			if db.physRefs[num] == 0 {
				_ = db.fs.Remove(n)
			}
		case manifest.KindLog:
			if num < db.vs.LogNum() {
				_ = db.fs.Remove(n)
			}
		case manifest.KindValueLog:
			// Live segments are in the version (flushes record the active
			// segment and every sealed one); the only referenced segment
			// possibly absent is the freshly created active one.
			if _, ok := db.vs.Current().VLogSegment(num); !ok && (db.vlogW == nil || num != db.vlogW.Seg()) {
				_ = db.fs.Remove(n)
			}
		case manifest.KindTemp:
			_ = db.fs.Remove(n)
		}
	}
}

// Metrics returns the engine counters.
func (db *DB) Metrics() *metrics.Metrics { return db.met }

// CacheStats reports TableCache and BlockCache behaviour: hits, misses,
// and the cumulative filter+index bytes fetched on TableCache misses (the
// metadata-caching overhead of paper Section 2.6).
type CacheStats struct {
	TableHits, TableMisses int64
	MetaBytesRead          int64
	BlockHits, BlockMisses int64
	// BlockUsedBytes and TableUsedEntries are the resident charges:
	// bytes for the block cache, open tables for the table cache.
	BlockUsedBytes   int64
	TableUsedEntries int64
	// BlockShards and TableShards are the shard counts the caches were
	// built with (resolved from Config.CacheShards at Open).
	BlockShards, TableShards int
}

// CacheStats returns current cache counters, aggregated across shards.
func (db *DB) CacheStats() CacheStats {
	th, tm := db.tableCache.Stats()
	bh, bm := db.blockCache.Stats()
	return CacheStats{
		TableHits: th, TableMisses: tm,
		MetaBytesRead: db.tableCache.MetaBytesRead(),
		BlockHits:     bh, BlockMisses: bm,
		BlockUsedBytes:   db.blockCache.UsedBytes(),
		TableUsedEntries: int64(db.tableCache.Len()),
		BlockShards:      db.blockCache.Shards(),
		TableShards:      db.tableCache.Shards(),
	}
}

// IO returns the engine counters under the name the benchmark harness
// still uses; it is Metrics.
func (db *DB) IO() *IOCounters { return db.met }

// Put inserts or overwrites one key.
func (db *DB) Put(key, value []byte) error {
	b := batch.New()
	b.Put(key, value)
	return db.Write(b)
}

// Delete removes one key.
func (db *DB) Delete(key []byte) error {
	b := batch.New()
	b.Delete(key)
	return db.Write(b)
}

// VisibleSeq returns the current read-visibility sequence number.
func (db *DB) VisibleSeq() keys.Seq { return keys.Seq(db.visibleSeq.Load()) }

// Snapshot pins a consistent read view.
//
//boltvet:mustclose
type Snapshot struct {
	db   *DB
	seq  keys.Seq
	elem *list.Element
}

// Seq returns the snapshot's sequence number.
func (s *Snapshot) Seq() keys.Seq { return s.seq }

// NewSnapshot returns a snapshot of the current state; callers must
// Release it.
func (db *DB) NewSnapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := &Snapshot{db: db, seq: db.VisibleSeq()}
	s.elem = db.snapshots.PushBack(s.seq)
	return s
}

// Release unpins the snapshot. Dropping the oldest pin may make deferred
// value-log punches safe, so ready reclaims run on the way out.
func (s *Snapshot) Release() {
	db := s.db
	db.mu.Lock()
	if s.elem != nil {
		db.snapshots.Remove(s.elem)
		s.elem = nil
	}
	ops := db.takeReclaimsLocked(false)
	db.mu.Unlock()
	db.execReclaims(ops)
}

// smallestSnapshotLocked returns the oldest sequence number any reader may
// still need (mu held).
func (db *DB) smallestSnapshotLocked() keys.Seq {
	if front := db.snapshots.Front(); front != nil {
		return front.Value.(keys.Seq)
	}
	return db.VisibleSeq()
}

// Get returns the value of key at the given snapshot (nil = latest). It
// holds its version pin until the value is read (vloggc.go, rule 4).
func (db *DB) Get(key []byte, snap *Snapshot) ([]byte, error) {
	db.met.Gets.Add(1)
	value, kind, found, v, err := db.lookup(key, snap)
	if err != nil {
		return nil, err
	}
	defer v.Unref()
	switch {
	case !found || kind == keys.KindDelete:
		return nil, ErrNotFound
	case kind == keys.KindSetPtr:
		if value, err = db.vlogGet(value); err != nil {
			return nil, err
		}
	}
	db.met.GetHits.Add(1)
	return value, nil
}

// lookup returns the newest entry for key visible at snap (nil = latest) —
// memtable, then immutable memtable, then the tables — raw: tombstones and
// value-log pointers come back with their kind for the caller to
// interpret. A plain memtable value is copied out of the arena. A latest
// read takes its sequence in the critical section that pins the version,
// which comes back pinned unless err is set.
func (db *DB) lookup(key []byte, snap *Snapshot) ([]byte, keys.Kind, bool, *manifest.Version, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, 0, false, nil, ErrClosed
	}
	seq := db.VisibleSeq()
	if snap != nil {
		seq = snap.seq
	}
	mem, imm := db.mem, db.imm
	v := db.vs.Current()
	v.Ref()
	db.mu.Unlock()

	// One seek key serves the memtables and every table probe below. It is
	// built on the stack (a key too long for the buffer grows it on the
	// heap): nothing below retains it.
	var kbuf [64]byte
	ikey := keys.MakeInternalKey(kbuf[:0], key, seq, keys.KindSeekMax)
	value, kind, found := mem.GetSeek(ikey)
	if !found && imm != nil {
		value, kind, found = imm.GetSeek(ikey)
	}
	if !found {
		value, kind, found, err := db.searchTables(v, ikey)
		if err != nil {
			v.Unref()
			return nil, 0, false, nil, err
		}
		return value, kind, found, v, nil
	}
	if kind == keys.KindSet {
		value = append([]byte(nil), value...)
	}
	return value, kind, true, v, nil
}

// vlogGet dereferences an encoded value-log pointer.
func (db *DB) vlogGet(ptr []byte) ([]byte, error) {
	p, err := vlog.DecodePointer(ptr)
	if err != nil {
		return nil, err
	}
	db.met.VLogDerefs.Add(1)
	var value []byte
	err = db.vlogFDs.With(p.Seg, func(f vfs.File) error {
		_, value, err = vlog.ReadRecord(f, p)
		return err
	})
	return value, err
}

// tableSearch carries one key lookup across the table levels. It is a
// struct with methods rather than a set of closures inside searchTables
// so a Get that reaches the tables does not heap-allocate the closure
// environments. The seek key is passed alongside rather than held here:
// escape analysis does not tell a struct's fields apart, and seekVictim
// reaches db.seekCompactFile, so a key stored beside it would be moved to
// the heap with it.
type tableSearch struct {
	db *DB
	v  *manifest.Version

	// seekVictim is the table a seek charge goes to — the first one
	// consulted, as in LevelDB — or nil when that table is a slice of a
	// multi-table level-0 run. Merging one such slice and its overlap
	// closure into level 1 pays two barriers for a few hundred KiB and
	// leaves the run where it is; and since every read consults level 0
	// first, how many of those compactions ran was set by how soon a
	// worker came free, not by need (DESIGN.md §6f). How many runs a read
	// merges at level 0 is what the L0 file trigger bounds.
	seekVictim      *manifest.FileMeta
	seekVictimLevel int
	consulted       int
}

// newest is the best answer a lookup has so far among tables that may hold
// the same user key — different level-0 runs, the tables of a fragmented
// pile. Their sequence ranges may interleave (after repair, even flush
// order cannot be assumed), so first-match is not safe: the winner is
// chosen by entry sequence number.
type newest struct {
	value []byte
	seq   keys.Seq
	kind  keys.Kind
	found bool
}

// consult probes table f for ikey and keeps its entry in best if it is the
// newer. runSlice marks f as one table of a multi-table level-0 run. The
// filter is probed here, once: a table it excludes reads no block, and
// one it admits is read without a second probe.
func (s *tableSearch) consult(level int, f *manifest.FileMeta, runSlice bool, ikey keys.InternalKey, best *newest) error {
	// A quarantined table's span must fail loudly rather than serve a
	// silently wrong (older or missing) version of the key.
	if s.v.IsQuarantined(f.Num) {
		return rangeCorruptError(level, f, nil)
	}
	s.consulted++
	if s.consulted == 1 && !runSlice {
		s.seekVictim, s.seekVictimLevel = f, level
	}
	s.db.met.TablesChecked.Add(1)
	h, err := s.db.tableCache.Acquire(f)
	if err != nil {
		return s.db.maybeQuarantineRead(level, f, err)
	}
	defer h.Release()
	if !h.Reader.MayContain(ikey.UserKey()) {
		s.db.met.BloomSkips.Add(1)
		return nil
	}
	value, seq, kind, found, err := h.Reader.GetUnfiltered(ikey)
	if err != nil {
		return s.db.maybeQuarantineRead(level, f, err)
	}
	if found && (!best.found || seq > best.seq) {
		*best = newest{value, seq, kind, true}
	}
	return nil
}

// consultRuns consults at most one table per sorted run: the one whose
// range covers the key, found by a binary search of the run's fences.
func (s *tableSearch) consultRuns(level int, ikey keys.InternalKey, best *newest) error {
	key := ikey.UserKey()
	for r, run := range s.v.Runs(level) {
		if f := s.v.RunTable(level, r, key); f != nil {
			if err := s.consult(level, f, level == 0 && len(run) > 1, ikey, best); err != nil {
				return err
			}
		}
	}
	return nil
}

// searchTables looks ikey's user key up in the table levels of v,
// returning the newest visible entry raw: tombstones and value-log
// pointers come back with their kind for the caller to interpret. Every
// level is read as its sorted runs, and a run costs a binary search and at
// most one table probe.
func (db *DB) searchTables(v *manifest.Version, ikey keys.InternalKey) ([]byte, keys.Kind, bool, error) {
	s := tableSearch{db: db, v: v}
	var best newest
	for level := 0; level < manifest.NumLevels && !best.found; level++ {
		if err := s.consultRuns(level, ikey, &best); err != nil {
			return nil, 0, false, err
		}
	}
	db.maybeChargeSeek(s.seekVictim, s.seekVictimLevel, s.consulted)
	return best.value, best.kind, best.found, nil
}

// maybeChargeSeek implements LevelDB's seek-compaction accounting: when a
// read had to consult more than one table, the first consulted table (the
// search's seekVictim, which see) is charged; at zero allowed seeks it
// becomes a compaction candidate.
func (db *DB) maybeChargeSeek(f *manifest.FileMeta, level int, consulted int) {
	if !db.cfg.SeekCompaction || consulted < 2 || f == nil {
		return
	}
	if f.AllowedSeeks.Add(-1) == 0 && level < manifest.NumLevels-1 {
		db.mu.Lock()
		if db.seekCompactFile == nil && !db.closed {
			db.seekCompactFile = f
			db.seekCompactLevel = level
			db.maybeScheduleWorkLocked()
		}
		db.mu.Unlock()
	}
}

// Close flushes nothing (matching LevelDB semantics: unflushed memtable
// data survives via the WAL), stops background work, and releases
// resources.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	db.closed = true
	close(db.stopc)
	if db.scrubTimer != nil {
		db.scrubTimer.Stop()
	}
	db.cond.Broadcast()
	// running covers every job, lane worker or foreground. Waiting on
	// manualActive too keeps the version set and caches alive until a
	// concurrent CompactRange has observed the close and unwound between
	// its jobs. Waiting on the writer queue keeps the WAL writer alive
	// until the in-flight group-commit leader has finished its off-mu
	// append: new writers are rejected at entry once closed is set, and
	// each queued writer becomes leader in turn, sees closed in
	// makeRoomForWriteLocked, and returns ErrClosed — so the queue drains
	// itself through the normal leader chain.
	for db.running > 0 || db.manualActive || db.writers != nil {
		db.cond.Wait()
	}
	// Every reader is gone, so every queued reclaim is safe now. The
	// after-flush list is dropped: value-GC advances no flush has logged
	// lose their punches (the reopened engine re-scans those chunks and
	// finds them dead), and an unflushed memtable's WAL stays for replay.
	// Its retired value-log segments are synced and closed below, with the
	// active one: Close pays the syncs no flush paid for them. A retired
	// WAL no flush took is closed with the active one.
	ops := db.takeReclaimsLocked(true)
	vlogWs := db.vlogWritersLocked()
	db.mu.Unlock()
	db.execReclaims(ops)

	// The first error wins; every call still runs.
	var firstErr error
	for _, w := range vlogWs {
		firstErr = cmp.Or(firstErr, w.Sync(), w.Close())
	}
	//boltvet:ignore-begin guardedby -- post-drain teardown: closed is set and every background path has unwound, so this goroutine is the last one standing
	if db.cfg.SyncWAL {
		firstErr = cmp.Or(firstErr, db.walW.Sync())
	}
	for _, a := range db.afterFlush {
		if a.walW != nil {
			firstErr = cmp.Or(firstErr, a.walW.Close())
		}
	}
	firstErr = cmp.Or(firstErr, db.walW.Close(), db.vs.Close())
	//boltvet:ignore-end
	db.tableCache.Close()
	if db.fdCache != nil {
		db.fdCache.Close()
	}
	db.vlogFDs.Close()
	return firstErr
}

// WaitIdle blocks until every job has drained (background lanes and
// foreground entries alike), and reports the pending background error, if
// any — a wait cut short by a fatal error or a read-only degradation must
// not look like a clean drain. Benchmarks use it to separate load-phase
// compaction debt from read-phase measurements.
func (db *DB) WaitIdle() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for (db.running > 0 || db.manualActive) && !db.bgStoppedLocked() {
		db.cond.Wait()
	}
	if db.closed {
		return ErrClosed
	}
	return db.pendingErrLocked()
}

// NumLevelFiles returns the table count per level (diagnostics).
func (db *DB) NumLevelFiles() [manifest.NumLevels]int {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out [manifest.NumLevels]int
	v := db.vs.Current()
	for i := range v.Levels {
		out[i] = len(v.Levels[i])
	}
	return out
}

// DebugVersion renders the current table layout.
func (db *DB) DebugVersion() string {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.vs.Current().DebugString()
}

// CheckInvariants validates the version layout (tests call this).
func (db *DB) CheckInvariants() error {
	db.mu.Lock()
	v := db.vs.Current()
	v.Ref()
	db.mu.Unlock()
	defer v.Unref()
	return db.checkVersionInvariants(v)
}

func (db *DB) checkVersionInvariants(v *manifest.Version) error {
	if err := v.CheckRuns(); err != nil {
		return err
	}
	for level := 1; level < manifest.NumLevels; level++ {
		if !db.cfg.Fragmented {
			if err := v.SortedTables(level); err != nil {
				return err
			}
		}
	}
	for level := range v.Levels {
		for _, f := range v.Levels[level] {
			if keys.Compare(f.Smallest, f.Largest) > 0 {
				return fmt.Errorf("core: table %d has inverted bounds", f.Num)
			}
			if f.Size <= 0 {
				return fmt.Errorf("core: table %d has size %d", f.Num, f.Size)
			}
		}
	}
	return nil
}
