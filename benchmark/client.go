package main

import (
	"bytes"
	"errors"
	"hash/maphash"
	"math"
	"time"

	"github.com/bolt-lsm/bolt/internal/core"
	"github.com/bolt-lsm/bolt/internal/ycsb"
)

// epoch anchors every timestamp the harness takes; now() is nanoseconds
// since it on the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// opClass is the operation class a latency or a client span belongs to.
type opClass int

const (
	classRead opClass = iota
	classWrite
	classScan
	numClasses
)

// truth is what the client knows the store must hold: for every key whose
// write was acknowledged, the hash of the last acknowledged value. Keys
// are ycsb.Key(0..records-1), so a seeded sample of indexes names keys to
// check. The map holds no pointers, so the collector never scans it.
type truth struct {
	seed    maphash.Seed
	last    map[uint64]uint64
	records int64
}

func newTruth(capacity int64) *truth {
	return &truth{seed: maphash.MakeSeed(), last: make(map[uint64]uint64, capacity)}
}

func (t *truth) hash(b []byte) uint64 { return maphash.Bytes(t.seed, b) }

// samples holds every latency of one class in nanoseconds, so percentiles
// are exact rather than bucketed.
type samples []uint32

func (s *samples) add(ns int64) {
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	*s = append(*s, uint32(ns))
}

type scanned struct{ key, value uint64 }

// client is one closed-loop caller: it issues an operation, waits for the
// reply, checks it against truth, and only then issues the next.
type client struct {
	db    *core.DB
	truth *truth
	tr    *tracer // nil on untraced runs
	spans spanBuf // this client's operations on a traced run

	// record turns latency recording on; set-up leaves it off.
	record bool
	lat    [numClasses]samples

	attempted, failed int64
	firstStart        int64
	lastEnd           int64

	scanBuf []scanned
	prevKey []byte
}

func newClient(db *core.DB, t *truth, tr *tracer) *client {
	return &client{db: db, truth: t, tr: tr, scanBuf: make([]scanned, 0, 128)}
}

func (c *client) observe(class opClass, t0, t1 int64) {
	c.lastEnd = t1
	if !c.record {
		return
	}
	c.lat[class].add(t1 - t0)
	if c.tr != nil {
		c.spans.add(span{start: t0, end: t1, parent: -1, kind: clientSpan(class)})
	}
}

// do runs one generated operation and checks its outcome.
func (c *client) do(op ycsb.Op) {
	c.attempted++
	switch op.Kind {
	case ycsb.OpRead:
		c.get(op.Key)
	case ycsb.OpUpdate, ycsb.OpInsert:
		c.put(op.Key, op.Value, op.Kind == ycsb.OpInsert)
	case ycsb.OpScan:
		c.scan(op.Key, op.ScanLen)
	default:
		c.failed++ // the workload table uses no other kind
	}
}

func (c *client) get(key []byte) {
	t0 := now()
	v, err := c.db.Get(key, nil)
	c.observe(classRead, t0, now())
	want, known := c.truth.last[c.truth.hash(key)]
	switch {
	case !known:
		if !errors.Is(err, core.ErrNotFound) {
			c.failed++
		}
	case err != nil || c.truth.hash(v) != want:
		c.failed++
	}
}

func (c *client) put(key, value []byte, insert bool) {
	t0 := now()
	err := c.db.Put(key, value)
	c.observe(classWrite, t0, now())
	if err != nil {
		c.failed++
		return
	}
	c.truth.last[c.truth.hash(key)] = c.truth.hash(value)
	if insert {
		c.truth.records++
	}
}

// scan is SeekGE, up to n Next with Key and Value read, and Close. Keys
// and values are hashed inside the timed span (they are only valid until
// Next); the comparison with truth happens after it.
func (c *client) scan(start []byte, n int) {
	c.scanBuf = c.scanBuf[:0]
	c.prevKey = append(c.prevKey[:0], start...)
	ordered := true
	t0 := now()
	it := c.db.NewIter(nil)
	for ok := it.SeekGE(start); ok && len(c.scanBuf) < n; ok = it.Next() {
		k := it.Key()
		// The first key may equal the seek key; later ones must ascend.
		if cmp := bytes.Compare(c.prevKey, k); cmp > 0 || (cmp == 0 && len(c.scanBuf) > 0) {
			ordered = false
		}
		c.prevKey = append(c.prevKey[:0], k...)
		c.scanBuf = append(c.scanBuf, scanned{c.truth.hash(k), c.truth.hash(it.Value())})
	}
	err := it.Err()
	if cerr := it.Close(); err == nil {
		err = cerr
	}
	c.observe(classScan, t0, now())
	if err != nil || !ordered {
		c.failed++
		return
	}
	for _, s := range c.scanBuf {
		if want, known := c.truth.last[s.key]; !known || want != s.value {
			c.failed++
			return
		}
	}
}

// runFor issues operations from gen until d has passed.
func (c *client) runFor(gen *ycsb.Generator, d time.Duration) {
	c.firstStart = now()
	deadline := c.firstStart + int64(d)
	for c.lastEnd < deadline {
		c.do(gen.Next())
	}
}
