// Package bloom implements the Bloom filter used in SSTable filter blocks.
// The construction matches LevelDB's: k probes derived from a single 32-bit
// hash by double hashing with its 17-bit rotation (Kirsch–Mitzenmacher).
// The paper's setup uses 10 bits per key (~1% false-positive rate).
package bloom

import "encoding/binary"

// Filter is an encoded Bloom filter: the bit array followed by one byte
// holding the probe count.
type Filter []byte

// DefaultBitsPerKey is the paper's configuration (10 bits, ~1% FP).
const DefaultBitsPerKey = 10

// Hash is LevelDB's bloom hash (a Murmur-flavoured hash with seed
// 0xbc9f1d34). A filter is a function of its keys' hashes alone, so a table
// builder keeps four bytes per entry instead of a copy of every key.
func Hash(data []byte) uint32 {
	const (
		seed = 0xbc9f1d34
		m    = 0xc6a4a793
	)
	h := uint32(seed) ^ uint32(len(data))*m
	for len(data) >= 4 {
		h += binary.LittleEndian.Uint32(data)
		h *= m
		h ^= h >> 16
		data = data[4:]
	}
	switch len(data) {
	case 3:
		h += uint32(data[2]) << 16
		fallthrough
	case 2:
		h += uint32(data[1]) << 8
		fallthrough
	case 1:
		h += uint32(data[0])
		h *= m
		h ^= h >> 24
	}
	return h
}

// Build creates a filter over keys with the given bits per key.
func Build(userKeys [][]byte, bitsPerKey int) Filter {
	hashes := make([]uint32, len(userKeys))
	for i, key := range userKeys {
		hashes[i] = Hash(key)
	}
	return AppendFilter(nil, hashes, bitsPerKey)
}

// AppendFilter appends to dst the filter over the keys with the given
// hashes (duplicates count toward the filter's size, as in Build) and
// returns the extended slice.
func AppendFilter(dst []byte, hashes []uint32, bitsPerKey int) []byte {
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	// k = bitsPerKey * ln(2), clamped as in LevelDB.
	k := uint32(float64(bitsPerKey) * 0.69)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	bits := len(hashes) * bitsPerKey
	if bits < 64 {
		bits = 64
	}
	nBytes := (bits + 7) / 8
	bits = nBytes * 8
	start := len(dst)
	dst = append(dst, make([]byte, nBytes+1)...)
	filter := dst[start:]
	filter[nBytes] = byte(k)
	for _, h := range hashes {
		delta := h>>17 | h<<15
		for j := uint32(0); j < k; j++ {
			pos := h % uint32(bits)
			filter[pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	return dst
}

// MayContain reports whether key may be in the set the filter was built
// over. False negatives are impossible; false positives occur at roughly
// the configured rate.
func (f Filter) MayContain(key []byte) bool {
	if len(f) < 2 {
		return false
	}
	bits := uint32(len(f)-1) * 8
	k := uint32(f[len(f)-1])
	if k > 30 {
		// Reserved for future encodings; err on the side of a match.
		return true
	}
	h := Hash(key)
	delta := h>>17 | h<<15
	for j := uint32(0); j < k; j++ {
		pos := h % bits
		if f[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}
