package core

import (
	"github.com/bolt-lsm/bolt/internal/metrics"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// IOCounters and IOSnapshot name the engine counters under the names the
// benchmark harness (benchmark/run.go, frozen until its next re-baseline)
// still uses; the file-level I/O counters are fields of metrics.Counters.
type (
	IOCounters = metrics.Metrics
	IOSnapshot = metrics.Snapshot
)

// countingFS decorates a vfs.FS with the file-level I/O counters.
type countingFS struct {
	inner vfs.FS
	c     *metrics.Metrics
}

var _ vfs.FS = (*countingFS)(nil)

func newCountingFS(inner vfs.FS, c *metrics.Metrics) *countingFS {
	return &countingFS{inner: inner, c: c}
}

func (f *countingFS) Create(name string) (vfs.File, error) {
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	f.c.FileCreates.Add(1)
	return &countingFile{inner: file, c: f.c}, nil
}

func (f *countingFS) Open(name string) (vfs.File, error) {
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	f.c.FileOpens.Add(1)
	return &countingFile{inner: file, c: f.c}, nil
}

func (f *countingFS) Remove(name string) error {
	err := f.inner.Remove(name)
	if err == nil {
		f.c.FileRemoves.Add(1)
	}
	return err
}

func (f *countingFS) Rename(oldname, newname string) error {
	return f.inner.Rename(oldname, newname)
}

func (f *countingFS) List() ([]string, error) { return f.inner.List() }

func (f *countingFS) Stat(name string) (int64, error) { return f.inner.Stat(name) }

func (f *countingFS) SyncDir() error { return f.inner.SyncDir() }

type countingFile struct {
	inner vfs.File
	c     *metrics.Metrics
}

var _ vfs.File = (*countingFile)(nil)

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.inner.Write(p)
	f.c.BytesWritten.Add(int64(n))
	return n, err
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.inner.ReadAt(p, off)
	f.c.BytesRead.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	err := f.inner.Sync()
	if err == nil {
		f.c.Fsyncs.Add(1)
	}
	return err
}

func (f *countingFile) Size() (int64, error) { return f.inner.Size() }

func (f *countingFile) PunchHole(off, length int64) error { return f.inner.PunchHole(off, length) }

func (f *countingFile) Close() error { return f.inner.Close() }
