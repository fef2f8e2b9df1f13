//go:build linux

package vfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// createMappedLog creates name as a log on an OSFS in a fresh directory
// and checks it is the mapped kind.
func createMappedLog(t *testing.T) (*OSFS, *mappedLog) {
	t.Helper()
	fs, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.CreateLog("000001.log")
	if err != nil {
		t.Fatal(err)
	}
	m, ok := f.(*mappedLog)
	if !ok {
		t.Fatalf("OSFS.CreateLog returned %T, want *mappedLog", f)
	}
	t.Cleanup(func() { _ = m.Close() })
	return fs, m
}

// pattern returns n bytes that differ from their neighbours and from zero.
func pattern(n, seed int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte((i+seed)%251) + 1
	}
	return p
}

func statSize(t *testing.T, fs *OSFS, name string) int64 {
	t.Helper()
	info, err := os.Stat(filepath.Join(fs.Root(), name))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func TestMappedLogMapsOnFirstWrite(t *testing.T) {
	fs, m := createMappedLog(t)
	if m.span != nil || statSize(t, fs, "000001.log") != 0 {
		t.Fatalf("CreateLog mapped or extended the file: span %d bytes, size %d", len(m.span), statSize(t, fs, "000001.log"))
	}
	if _, err := m.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if m.span == nil || statSize(t, fs, "000001.log") != logWindow {
		t.Fatalf("first Write: span %d bytes, file size %d, want one %d-byte window", len(m.span), statSize(t, fs, "000001.log"), logWindow)
	}
}

func TestMappedLogRecordStraddlesWindow(t *testing.T) {
	fs, m := createMappedLog(t)
	head := pattern(logWindow-100, 1)
	rec := pattern(300, 7)
	var want []byte
	for _, p := range [][]byte{head, rec} {
		n, err := m.Write(p)
		if err != nil || n != len(p) {
			t.Fatalf("Write(%d bytes) = %d, %v", len(p), n, err)
		}
		want = append(want, p...)
	}
	if got := statSize(t, fs, "000001.log"); got != 2*logWindow {
		t.Fatalf("file size %d while open, want two windows (%d)", got, 2*logWindow)
	}
	// A read through the descriptor sees the stores: the mapping and the
	// page cache are one.
	got := make([]byte, len(rec))
	if err := ReadFull(m, got, int64(len(head))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rec) {
		t.Fatal("ReadAt across the window boundary differs from the record written")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(fs.Root(), "000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("closed file holds %d bytes, want the %d written", len(data), len(want))
	}
}

func TestMappedLogOutgrowsItsSpan(t *testing.T) {
	fs, m := createMappedLog(t)
	chunk := pattern(logWindow, 2)
	for range logSpan/logWindow - 1 {
		if _, err := m.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	// The last window of the span ends with the start of a record whose
	// rest lands in a new mapping.
	if _, err := m.Write(chunk[:logWindow-100]); err != nil {
		t.Fatal(err)
	}
	rec := pattern(300, 11)
	if _, err := m.Write(rec); err != nil {
		t.Fatal(err)
	}
	if m.spanOff != logSpan {
		t.Fatalf("mapping at %d after the span filled, want %d", m.spanOff, logSpan)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(fs.Root(), "000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make([]byte, len(rec)+1)
	n, _ := f.ReadAt(got, logSpan-100)
	if n != len(rec) || !bytes.Equal(got[:n], rec) {
		t.Fatalf("read %d bytes across the span boundary, want the %d-byte record and the end of the file", n, len(rec))
	}
}

func TestMappedLogSizeIsLogical(t *testing.T) {
	_, m := createMappedLog(t)
	var total int64
	for i := 0; total < 2*logWindow+logWindow/2; i++ {
		p := pattern(299+i%17, i)
		if _, err := m.Write(p); err != nil {
			t.Fatal(err)
		}
		total += int64(len(p))
		if got, err := m.Size(); err != nil || got != total {
			t.Fatalf("after %d bytes Size = %d, %v", total, got, err)
		}
	}
}

func TestMappedLogCloseTruncates(t *testing.T) {
	for _, n := range []int{0, 1, logWindow - 1, logWindow, logWindow + 1} {
		fs, m := createMappedLog(t)
		if n > 0 {
			if _, err := m.Write(pattern(n, n)); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if got := statSize(t, fs, "000001.log"); got != int64(n) {
			t.Fatalf("%d bytes written: closed file is %d bytes", n, got)
		}
	}
}

func TestMappedLogFaultIsAnError(t *testing.T) {
	fs, m := createMappedLog(t)
	if _, err := m.Write(pattern(4096, 3)); err != nil {
		t.Fatal(err)
	}
	// Cut the file under the mapping: the next store lands past the end
	// of the file, which the kernel answers with SIGBUS.
	if err := os.Truncate(filepath.Join(fs.Root(), "000001.log"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Write(pattern(100, 5)); err == nil || !strings.Contains(err.Error(), "fault") {
		t.Fatalf("a store past the end of the file: got %v, want a fault error", err)
	}
	if _, err := m.Write([]byte("x")); err == nil {
		t.Fatal("a faulted log accepted a later Write")
	}
}

func TestErrorFSOverMappedLog(t *testing.T) {
	osfs, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	efs := NewErrorFS(osfs)
	f, err := CreateLog(efs, "000001.log")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, ok := f.(*errorFile).inner.(*mappedLog); !ok {
		t.Fatalf("ErrorFS.CreateLog wraps %T, want *mappedLog", f.(*errorFile).inner)
	}
	if _, err := f.Write([]byte("first")); err != nil {
		t.Fatal(err)
	}
	efs.SetInjector(FailNth(OpWrite, 2, false))
	var inj *InjectedError
	if _, err := f.Write([]byte("second")); !errors.As(err, &inj) {
		t.Fatalf("injected write fault: got %v", err)
	}
	if size, _ := f.Size(); size != int64(len("first")) {
		t.Fatalf("a failed Write reached the mapping: size %d", size)
	}
	efs.SetInjector(FailNth(OpSync, 1, false))
	if err := f.Sync(); !errors.As(err, &inj) {
		t.Fatalf("injected sync fault: got %v", err)
	}
	efs.SetInjector(nil)
	if _, err := f.Write([]byte("third")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncTrackerOverMappedLog(t *testing.T) {
	osfs, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tfs := NewSyncTrackerFS(osfs, &recordingChecker{}).(*syncTrackerFS)
	f, err := CreateLog(tfs, "000001.log")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, ok := f.(*syncTrackerFile).inner.(*mappedLog); !ok {
		t.Fatalf("sync tracker's CreateLog wraps %T, want *mappedLog", f.(*syncTrackerFile).inner)
	}
	rec := pattern(logWindow/2+1, 9)
	for range 3 {
		if _, err := f.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	written := int64(3 * len(rec))
	if s := tfs.stateOf("000001.log"); s.Written != written || s.Synced != 0 {
		t.Fatalf("before Sync: %+v, want %d written and none synced", s, written)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if s := tfs.stateOf("000001.log"); s.Synced != written {
		t.Fatalf("after Sync: %+v, want all %d synced", s, written)
	}
}
