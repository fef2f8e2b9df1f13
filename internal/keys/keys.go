// Package keys implements the internal key encoding used throughout the
// engine. An internal key is a user key followed by an 8-byte little-endian
// trailer packing a 56-bit sequence number and an 8-bit value kind, exactly
// as in LevelDB. Internal keys order by user key ascending, then sequence
// number descending, then kind descending, so the newest entry for a user
// key sorts first.
package keys

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Kind describes the type of an entry stored under an internal key.
type Kind uint8

// Entry kinds. KindDelete must sort before KindSet for equal sequence
// numbers; LevelDB assigns delete=0, set=1.
const (
	KindDelete Kind = 0
	KindSet    Kind = 1
	// KindSetPtr is a set whose value lives out of line in the value log;
	// the entry's value bytes encode a vlog.Pointer instead of the value
	// itself. Within one sequence number it must sort after KindSet, but a
	// user key never carries both kinds at the same sequence, so only
	// distinctness matters.
	KindSetPtr Kind = 2

	// KindSeekMax is the kind used when constructing a key for seeking:
	// because kinds sort descending within a sequence number, the maximal
	// kind positions the seek key before all entries with the same user key
	// and sequence number.
	KindSeekMax Kind = 0xff
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindDelete:
		return "DEL"
	case KindSet:
		return "SET"
	case KindSetPtr:
		return "SETPTR"
	case KindSeekMax:
		return "SEEK"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Seq is a 56-bit sequence number. Sequence numbers increase monotonically
// with every applied write; snapshot reads pin a sequence number.
type Seq uint64

// MaxSeq is the largest representable sequence number.
const MaxSeq Seq = (1 << 56) - 1

// TrailerLen is the length of the internal key trailer in bytes.
const TrailerLen = 8

// PackTrailer combines a sequence number and kind into the 64-bit trailer.
func PackTrailer(seq Seq, kind Kind) uint64 {
	return uint64(seq)<<8 | uint64(kind)
}

// UnpackTrailer splits a trailer into its sequence number and kind.
func UnpackTrailer(t uint64) (Seq, Kind) {
	return Seq(t >> 8), Kind(t & 0xff)
}

// InternalKey is an encoded internal key: user key bytes followed by the
// 8-byte trailer.
type InternalKey []byte

// MakeInternalKey appends the encoding of (ukey, seq, kind) to dst and
// returns the extended slice.
func MakeInternalKey(dst []byte, ukey []byte, seq Seq, kind Kind) InternalKey {
	return appendTrailer(append(dst, ukey...), seq, kind)
}

func appendTrailer(dst []byte, seq Seq, kind Kind) InternalKey {
	return binary.LittleEndian.AppendUint64(dst, PackTrailer(seq, kind))
}

// Valid reports whether ik is long enough to contain a trailer.
func (ik InternalKey) Valid() bool { return len(ik) >= TrailerLen }

// UserKey returns the user key portion of ik. It panics if ik is invalid;
// callers must validate keys read from untrusted storage first.
func (ik InternalKey) UserKey() []byte { return ik[:len(ik)-TrailerLen] }

// Trailer returns the decoded trailer of ik.
func (ik InternalKey) Trailer() uint64 {
	return binary.LittleEndian.Uint64(ik[len(ik)-TrailerLen:])
}

// Seq returns the sequence number encoded in ik.
func (ik InternalKey) Seq() Seq {
	s, _ := UnpackTrailer(ik.Trailer())
	return s
}

// Kind returns the kind encoded in ik.
func (ik InternalKey) Kind() Kind {
	_, k := UnpackTrailer(ik.Trailer())
	return k
}

// String formats ik for debugging.
func (ik InternalKey) String() string {
	if !ik.Valid() {
		return fmt.Sprintf("invalid:%q", []byte(ik))
	}
	return fmt.Sprintf("%q#%d,%s", ik.UserKey(), ik.Seq(), ik.Kind())
}

// Compare orders two internal keys: user key ascending, then trailer
// descending (newer first).
func Compare(a, b InternalKey) int {
	if c := bytes.Compare(a.UserKey(), b.UserKey()); c != 0 {
		return c
	}
	at, bt := a.Trailer(), b.Trailer()
	switch {
	case at > bt:
		return -1
	case at < bt:
		return 1
	default:
		return 0
	}
}

// CompareUser orders two user keys bytewise; it exists so that all key
// comparisons in the engine flow through this package.
func CompareUser(a, b []byte) int { return bytes.Compare(a, b) }

// Separator appends to dst a short internal key k such that a <= k < b in
// internal key order, used as an index-block separator. The user-key
// portion is shortened where possible, following LevelDB's
// BytewiseComparator::FindShortestSeparator; the trailer is then the
// maximal trailer so the separator sorts at-or-after every entry with user
// key equal to a's.
func Separator(dst []byte, a, b InternalKey) InternalKey {
	au, bu := a.UserKey(), b.UserKey()
	n := len(au)
	if len(bu) < n {
		n = len(bu)
	}
	i := 0
	for i < n && au[i] == bu[i] {
		i++
	}
	// i >= n: one user key is a prefix of the other; nothing to shorten.
	// Bumping au[i] shortens only if it stays below bu[i] and drops bytes.
	if i < n && au[i] < 0xff && au[i]+1 < bu[i] && i+1 < len(au) {
		dst = append(dst, au[:i+1]...)
		dst[len(dst)-1]++
		return appendTrailer(dst, MaxSeq, KindSeekMax)
	}
	return append(dst, a...)
}

// Successor appends to dst a short internal key k >= a, used as the final
// index-block entry of a table.
func Successor(dst []byte, a InternalKey) InternalKey {
	au := a.UserKey()
	for i := 0; i < len(au); i++ {
		if au[i] != 0xff {
			dst = append(dst, au[:i+1]...)
			dst[len(dst)-1]++
			return appendTrailer(dst, MaxSeq, KindSeekMax)
		}
	}
	return append(dst, a...)
}
