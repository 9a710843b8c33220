package concurrent

import (
	"encoding/binary"
	"math/bits"
)

// Digest hashes a full cache key to the 64-bit id the inner caches operate
// on. It is xxHash64 (seed 0): allocation-free, processing 8 bytes per
// round (four interleaved lanes on long inputs). The server computes the
// digest once at parse time and threads it through KV → inner cache, so
// no layer hashes a key twice.
//
// The digest is the key of the object's slot, so distinct keys that
// collide are detected by full-key comparison in KV and served as misses
// (see the KV doc comment).
func Digest(key []byte) uint64 {
	b := key
	var h uint64
	if len(b) >= 32 {
		// Lane seeds for seed 0 (computed at run time: the wrapped sums
		// overflow Go's constant arithmetic).
		v1 := xxPrime1
		v1 += xxPrime2
		v2 := xxPrime2
		v3 := uint64(0)
		v4 := uint64(0)
		v4 -= xxPrime1
		for len(b) >= 32 {
			v1 = xxRound(v1, binary.LittleEndian.Uint64(b[0:8]))
			v2 = xxRound(v2, binary.LittleEndian.Uint64(b[8:16]))
			v3 = xxRound(v3, binary.LittleEndian.Uint64(b[16:24]))
			v4 = xxRound(v4, binary.LittleEndian.Uint64(b[24:32]))
			b = b[32:]
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = xxMergeRound(h, v1)
		h = xxMergeRound(h, v2)
		h = xxMergeRound(h, v3)
		h = xxMergeRound(h, v4)
	} else {
		h = xxPrime5
	}
	h += uint64(len(key))
	for len(b) >= 8 {
		h ^= xxRound(0, binary.LittleEndian.Uint64(b))
		h = bits.RotateLeft64(h, 27)*xxPrime1 + xxPrime4
		b = b[8:]
	}
	if len(b) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(b)) * xxPrime1
		h = bits.RotateLeft64(h, 23)*xxPrime2 + xxPrime3
		b = b[4:]
	}
	for _, c := range b {
		h ^= uint64(c) * xxPrime5
		h = bits.RotateLeft64(h, 11) * xxPrime1
	}
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

const (
	xxPrime1 uint64 = 11400714785074694791
	xxPrime2 uint64 = 14029467366897019727
	xxPrime3 uint64 = 1609587929392839161
	xxPrime4 uint64 = 9650029242287828579
	xxPrime5 uint64 = 2870177450012600261
)

func xxRound(acc, input uint64) uint64 {
	acc += input * xxPrime2
	acc = bits.RotateLeft64(acc, 31)
	return acc * xxPrime1
}

func xxMergeRound(acc, val uint64) uint64 {
	acc ^= xxRound(0, val)
	return acc*xxPrime1 + xxPrime4
}
