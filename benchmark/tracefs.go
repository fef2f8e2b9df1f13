package main

import (
	"github.com/bolt-lsm/bolt/internal/manifest"
	"github.com/bolt-lsm/bolt/internal/vfs"
)

// traceFS wraps the filesystem the engine is opened on and records one
// span for every call the engine makes through it, classified by the
// file's kind. It changes no byte and no error: a database written through
// it reopens without it.
type traceFS struct {
	inner vfs.FS
	tr    *tracer
}

var _ vfs.FS = (*traceFS)(nil)

// fileSpans are the span kinds of one file class's write, sync and read.
type fileSpans struct{ write, sync, read spanKind }

func classify(name string) fileSpans {
	switch kind, _, _ := manifest.ParseFileName(name); kind {
	case manifest.KindLog:
		return fileSpans{spWALWrite, spWALSync, spOtherIO}
	case manifest.KindTable:
		return fileSpans{spTableWrite, spTableSync, spTableRead}
	case manifest.KindManifest:
		return fileSpans{spManifestWrite, spManifestSync, spOtherIO}
	case manifest.KindValueLog:
		return fileSpans{spVLogWrite, spVLogSync, spVLogRead}
	default: // CURRENT and temporary files
		return fileSpans{spOtherIO, spOtherIO, spOtherIO}
	}
}

func (t *traceFS) wrap(f vfs.File, err error, name string, kind spanKind, start int64) (vfs.File, error) {
	t.tr.add(kind, start, now())
	if err != nil {
		return nil, err
	}
	return &traceFile{inner: f, tr: t.tr, spans: classify(name)}, nil
}

func (t *traceFS) Create(name string) (vfs.File, error) {
	start := now()
	f, err := t.inner.Create(name)
	return t.wrap(f, err, name, spCreate, start)
}

func (t *traceFS) Open(name string) (vfs.File, error) {
	start := now()
	f, err := t.inner.Open(name)
	return t.wrap(f, err, name, spOpen, start)
}

func (t *traceFS) Remove(name string) error {
	start := now()
	err := t.inner.Remove(name)
	t.tr.add(spRemove, start, now())
	return err
}

func (t *traceFS) Rename(oldname, newname string) error {
	start := now()
	err := t.inner.Rename(oldname, newname)
	t.tr.add(spOtherIO, start, now())
	return err
}

func (t *traceFS) SyncDir() error {
	start := now()
	err := t.inner.SyncDir()
	t.tr.add(spOtherIO, start, now())
	return err
}

func (t *traceFS) List() ([]string, error)         { return t.inner.List() }
func (t *traceFS) Stat(name string) (int64, error) { return t.inner.Stat(name) }

type traceFile struct {
	inner vfs.File
	tr    *tracer
	spans fileSpans
}

var _ vfs.File = (*traceFile)(nil)

func (f *traceFile) Write(p []byte) (int, error) {
	start := now()
	n, err := f.inner.Write(p)
	f.tr.addBytes(f.spans.write, start, now(), n)
	return n, err
}

func (f *traceFile) ReadAt(p []byte, off int64) (int, error) {
	start := now()
	n, err := f.inner.ReadAt(p, off)
	f.tr.addBytes(f.spans.read, start, now(), n)
	return n, err
}

func (f *traceFile) Sync() error {
	start := now()
	err := f.inner.Sync()
	f.tr.add(f.spans.sync, start, now())
	return err
}

func (f *traceFile) PunchHole(off, length int64) error {
	start := now()
	err := f.inner.PunchHole(off, length)
	f.tr.addBytes(spPunch, start, now(), int(length))
	return err
}

func (f *traceFile) Size() (int64, error) { return f.inner.Size() }
func (f *traceFile) Close() error         { return f.inner.Close() }
