package batch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"github.com/bolt-lsm/bolt/internal/keys"
)

type op struct {
	kind keys.Kind
	seq  keys.Seq
	k, v string
}

func collect(t *testing.T, b *Batch) []op {
	t.Helper()
	var ops []op
	err := b.Iterate(func(seq keys.Seq, kind keys.Kind, key, value []byte) error {
		ops = append(ops, op{kind, seq, string(key), string(value)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

func TestPutDeleteIterate(t *testing.T) {
	b := New()
	b.Put([]byte("a"), []byte("1"))
	b.Delete([]byte("b"))
	b.Put([]byte("c"), []byte("3"))
	b.SetSeq(100)

	if b.Count() != 3 {
		t.Fatalf("Count = %d", b.Count())
	}
	ops := collect(t, b)
	want := []op{
		{keys.KindSet, 100, "a", "1"},
		{keys.KindDelete, 101, "b", ""},
		{keys.KindSet, 102, "c", "3"},
	}
	if fmt.Sprint(ops) != fmt.Sprint(want) {
		t.Fatalf("ops = %v", ops)
	}
}

func TestReprRoundTrip(t *testing.T) {
	b := New()
	b.Put([]byte("key"), bytes.Repeat([]byte("v"), 300))
	b.SetSeq(42)
	b2, err := FromRepr(append([]byte(nil), b.Repr()...))
	if err != nil {
		t.Fatal(err)
	}
	if b2.Seq() != 42 || b2.Count() != 1 {
		t.Fatalf("seq=%d count=%d", b2.Seq(), b2.Count())
	}
	ops := collect(t, b2)
	if len(ops) != 1 || ops[0].k != "key" || len(ops[0].v) != 300 {
		t.Fatalf("ops = %v", ops)
	}
}

func TestAppend(t *testing.T) {
	a := New()
	a.Put([]byte("x"), []byte("1"))
	b := New()
	b.Delete([]byte("y"))
	b.Put([]byte("z"), []byte("2"))
	a.Append(b)
	a.SetSeq(10)
	ops := collect(t, a)
	if len(ops) != 3 {
		t.Fatalf("count = %d", len(ops))
	}
	if ops[1].kind != keys.KindDelete || ops[1].seq != 11 || ops[2].seq != 12 {
		t.Fatalf("ops = %v", ops)
	}
	// b unchanged.
	if b.Count() != 2 {
		t.Fatalf("appended-from batch mutated: %d", b.Count())
	}
}

func TestReset(t *testing.T) {
	b := New()
	b.Put([]byte("a"), []byte("1"))
	b.SetSeq(5)
	b.Reset()
	if !b.Empty() || b.Seq() != 0 || b.Size() != 12 {
		t.Fatalf("after reset: count=%d seq=%d size=%d", b.Count(), b.Seq(), b.Size())
	}
}

func TestCorruptRepr(t *testing.T) {
	if _, err := FromRepr([]byte("short")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short repr: %v", err)
	}
	// Count says 1 but no payload.
	raw := make([]byte, 12)
	raw[8] = 1
	b, err := FromRepr(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Iterate(func(keys.Seq, keys.Kind, []byte, []byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated batch iterate: %v", err)
	}
	// Bad kind byte.
	bad := New()
	bad.Put([]byte("k"), []byte("v"))
	bad.Repr()[12] = 99
	if err := bad.Iterate(func(keys.Seq, keys.Kind, []byte, []byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad kind iterate: %v", err)
	}
}

func TestIterateCallbackError(t *testing.T) {
	b := New()
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	sentinel := errors.New("stop")
	calls := 0
	err := b.Iterate(func(keys.Seq, keys.Kind, []byte, []byte) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(ops [][2][]byte, seq uint32, deletes []bool) bool {
		b := New()
		var want []op
		s := keys.Seq(seq)
		for i, kv := range ops {
			del := i < len(deletes) && deletes[i]
			if del {
				b.Delete(kv[0])
				want = append(want, op{keys.KindDelete, s + keys.Seq(i), string(kv[0]), ""})
			} else {
				b.Put(kv[0], kv[1])
				want = append(want, op{keys.KindSet, s + keys.Seq(i), string(kv[0]), string(kv[1])})
			}
		}
		b.SetSeq(s)
		b2, err := FromRepr(b.Repr())
		if err != nil {
			return false
		}
		var got []op
		err = b2.Iterate(func(seq keys.Seq, kind keys.Kind, key, value []byte) error {
			got = append(got, op{kind, seq, string(key), string(value)})
			return nil
		})
		return err == nil && fmt.Sprint(got) == fmt.Sprint(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWireBytes checks the encoding byte for byte against the format
// spelled out field by field, over records whose head fits the spare
// capacity, whose head does not (a long key), and whose value grows the
// buffer, and checks that Put on a new batch allocates once.
func TestWireBytes(t *testing.T) {
	b := New()
	want := make([]byte, headerSize)
	for i, r := range []struct {
		kind       keys.Kind
		key, value []byte
	}{
		{keys.KindSet, []byte("k"), []byte("v")},
		{keys.KindDelete, []byte("gone"), nil},
		{keys.KindSet, bytes.Repeat([]byte("K"), 300), []byte("after a long key")},
		{keys.KindSetPtr, []byte("p"), []byte{1, 2, 3}},
		{keys.KindSet, []byte("big"), bytes.Repeat([]byte("V"), 5000)},
		{keys.KindDelete, bytes.Repeat([]byte("D"), 200), nil},
		{keys.KindSet, nil, nil},
	} {
		switch r.kind {
		case keys.KindSet:
			b.Put(r.key, r.value)
		case keys.KindSetPtr:
			b.PutPtr(r.key, r.value)
		default:
			b.Delete(r.key)
		}
		want = append(want, byte(r.kind))
		want = binary.AppendUvarint(want, uint64(len(r.key)))
		want = append(want, r.key...)
		if r.kind != keys.KindDelete {
			want = binary.AppendUvarint(want, uint64(len(r.value)))
			want = append(want, r.value...)
		}
		binary.LittleEndian.PutUint32(want[8:12], uint32(i+1))
		if !bytes.Equal(b.Repr(), want) {
			t.Fatalf("after record %d: repr differs from the wire format", i)
		}
	}

	value := make([]byte, 4096)
	if n := testing.AllocsPerRun(100, func() { New().Put([]byte("user0123456789"), value) }); n != 2 {
		t.Fatalf("New + Put of a 4 KiB value: %v allocations, want 2 (the batch and its one growth)", n)
	}
}
