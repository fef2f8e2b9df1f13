// Package wal implements the write-ahead log. Each committed write batch is
// one log record (see internal/logrec); group commit concatenates several
// user batches into one record before a single append and optional sync.
// Recovery replays all intact records and tolerates a torn tail.
package wal

import (
	"errors"
	"fmt"
	"io"

	"github.com/bolt-lsm/bolt/internal/batch"
	"github.com/bolt-lsm/bolt/internal/logrec"
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// Writer appends batches to a log file. It is not self-locking: the
// engine serializes all calls — appends through the group-commit leader
// (which owns the writer for its off-mu append window) and Close through
// the flush of a retired log's memtable or the post-drain teardown.
//
//boltvet:mustclose
type Writer struct {
	f      vfs.File       //boltvet:guardedby none -- externally serialized by the engine (see type doc)
	lw     *logrec.Writer //boltvet:guardedby none -- externally serialized by the engine (see type doc)
	closed bool           //boltvet:guardedby none -- externally serialized by the engine (see type doc)
	num    uint64         //boltvet:guardedby none -- immutable after NewWriter
}

// NewWriter creates the log file `name` in fs, as fs's log file where it
// has one (vfs.CreateLog).
func NewWriter(fs vfs.FS, name string) (*Writer, error) {
	f, err := vfs.CreateLog(fs, name)
	if err != nil {
		return nil, fmt.Errorf("wal: create %q: %w", name, err)
	}
	_, num, _ := manifest.ParseFileName(name)
	return &Writer{f: f, lw: logrec.NewWriter(f), num: num}, nil
}

// Num returns the log number the writer's file name carries
// (manifest.LogFileName), or 0 for a name outside the database's naming.
func (w *Writer) Num() uint64 { return w.num }

// AddRecord appends one record (a batch representation).
func (w *Writer) AddRecord(data []byte) error {
	if w.closed {
		return errors.New("wal: writer closed")
	}
	return w.lw.WriteRecord(data)
}

// Sync makes appended records durable.
func (w *Writer) Sync() error {
	if w.closed {
		return errors.New("wal: writer closed")
	}
	return w.f.Sync()
}

// Close closes the underlying file without syncing.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}

// Replay reads the log file `name` and invokes fn for every intact batch,
// in order. A torn or corrupt tail ends replay cleanly. The returned
// maxSeq is the highest sequence number applied (0 if none).
func Replay(fs vfs.FS, name string, fn func(b *batch.Batch) error) (maxSeq uint64, err error) {
	data, err := vfs.ReadWholeFile(fs, name)
	if err != nil {
		return 0, fmt.Errorf("wal: read %q: %w", name, err)
	}
	r := logrec.NewReader(data)
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return maxSeq, nil
		}
		if err != nil {
			return maxSeq, fmt.Errorf("wal: replay %q: %w", name, err)
		}
		b, err := batch.FromRepr(rec)
		if err != nil {
			// A decoded-but-malformed record means real corruption beyond a
			// torn tail; stop replay here, matching LevelDB's paranoid mode
			// being off.
			return maxSeq, nil
		}
		if err := fn(b); err != nil {
			return maxSeq, err
		}
		if n := b.Count(); n > 0 {
			last := uint64(b.Seq()) + uint64(n) - 1
			if last > maxSeq {
				maxSeq = last
			}
		}
	}
}
