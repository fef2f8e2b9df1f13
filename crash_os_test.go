//go:build linux

package bolt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"testing"

	"github.com/bolt-lsm/bolt/internal/manifest"
)

// crashChildEnv carries the database directory to a copy of the test
// binary that TestProcessCrashKeepsAckedWrites starts; that copy loads
// the store until it is killed.
const crashChildEnv = "BOLT_PROCESS_CRASH_DIR"

const (
	crashValueBytes = 1000
	// The child is killed once this many Puts are acknowledged: about
	// 8 MB of WAL, so four 2 MiB memtables retire their logs and each log
	// crosses the mapped WAL's 1 MiB windows twice.
	crashKillAt = 8000
)

func crashOpts() *Options {
	return &Options{MemTableBytes: 2 << 20, SyncWrites: false}
}

func crashKey(i int) []byte { return []byte(fmt.Sprintf("key%08d", i)) }

func crashValue(i int) []byte {
	v := bytes.Repeat([]byte{byte('a' + i%26)}, crashValueBytes)
	copy(v, fmt.Sprintf("%08d", i))
	return v
}

// TestProcessCrashKeepsAckedWrites kills a process mid-load on the OS
// filesystem and requires every write it acknowledged to survive. With
// SyncWrites off nothing is synced per commit, so what carries an
// acknowledged write across the kill is that the WAL append has reached
// the page cache before Put returns.
func TestProcessCrashKeepsAckedWrites(t *testing.T) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		crashChild(dir)
		return
	}
	dir := t.TempDir()
	acks, ackW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer acks.Close()
	var stderr bytes.Buffer
	cmd := exec.Command(os.Args[0], "-test.run=^TestProcessCrashKeepsAckedWrites$")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	cmd.ExtraFiles = []*os.File{ackW} // the child's fd 3
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cmd.Process.Kill() }() // a failed check must not leave it loading
	ackW.Close()

	// Every index read is an acknowledged Put. The pipe keeps what the
	// child wrote before it died, so reading on after the kill collects
	// every acknowledgement.
	acked := -1
	killed := false
	var buf [4]byte
	for {
		if _, err := io.ReadFull(acks, buf[:]); err != nil {
			break
		}
		i := int(binary.LittleEndian.Uint32(buf[:]))
		if i != acked+1 {
			t.Fatalf("ack %d after ack %d", i, acked)
		}
		acked = i
		if !killed && acked+1 >= crashKillAt {
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			killed = true
		}
	}
	err = cmd.Wait()
	if !killed {
		t.Fatalf("the child stopped after %d acks: %v\n%s", acked+1, err, stderr.Bytes())
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != -1 {
		t.Fatalf("the child was not killed: %v\n%s", err, stderr.Bytes())
	}

	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	tables := 0
	for _, e := range names {
		if kind, _, ok := manifest.ParseFileName(e.Name()); ok && kind == manifest.KindTable {
			tables++
		}
	}
	if tables == 0 {
		t.Fatal("no memtable was flushed before the kill, so no WAL was rotated")
	}

	db, err := Open(dir, crashOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i <= acked; i++ {
		got, err := db.Get(crashKey(i))
		if err != nil {
			t.Fatalf("acknowledged key %d of %d: %v", i, acked+1, err)
		}
		if !bytes.Equal(got, crashValue(i)) {
			t.Fatalf("acknowledged key %d reads back a different value", i)
		}
	}
}

// crashChild Puts keys into the store at dir until it is killed, writing
// each acknowledged index to fd 3.
func crashChild(dir string) {
	acks := os.NewFile(3, "acks")
	db, err := Open(dir, crashOpts())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var buf [4]byte
	for i := 0; ; i++ {
		if err := db.Put(crashKey(i), crashValue(i)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(3)
		}
		binary.LittleEndian.PutUint32(buf[:], uint32(i))
		if _, err := acks.Write(buf[:]); err != nil {
			os.Exit(4)
		}
	}
}
