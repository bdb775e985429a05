package core

import (
	"encoding/binary"
	"math/bits"
)

// XXH64 (Yann Collet's xxHash, 64-bit variant, seed 0), one-shot. The
// bulk loop consumes 32-byte stripes as four independent 64-bit lanes,
// so the multiply chains of the lanes overlap in the pipeline instead
// of every byte waiting on the one before it, as in fnv. It is a
// non-adversarial content fingerprint — cache keys, ETags, hot-replica
// checks — not a defence against a holder that lies (ROADMAP, "close
// the integrity loop").

const (
	xxPrime1 uint64 = 11400714785074694791
	xxPrime2 uint64 = 14029467366897019727
	xxPrime3 uint64 = 1609587929392839161
	xxPrime4 uint64 = 9650029242287828579
	xxPrime5 uint64 = 2870177450012600261
)

func xxRound(acc, lane uint64) uint64 {
	return bits.RotateLeft64(acc+lane*xxPrime2, 31) * xxPrime1
}

func xxMerge(h, acc uint64) uint64 {
	return (h^xxRound(0, acc))*xxPrime1 + xxPrime4
}

func xxh64(b []byte) uint64 {
	n := uint64(len(b))
	var h uint64
	if len(b) >= 32 {
		// The lane seeds are written as wrapping arithmetic on variables:
		// as constant expressions they would overflow uint64.
		v1, v2, v3, v4 := xxPrime1, xxPrime2, uint64(0), xxPrime1
		v1 += xxPrime2
		v4 = -v4
		for ; len(b) >= 32; b = b[32:] {
			v1 = xxRound(v1, binary.LittleEndian.Uint64(b[0:8]))
			v2 = xxRound(v2, binary.LittleEndian.Uint64(b[8:16]))
			v3 = xxRound(v3, binary.LittleEndian.Uint64(b[16:24]))
			v4 = xxRound(v4, binary.LittleEndian.Uint64(b[24:32]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = xxMerge(h, v1)
		h = xxMerge(h, v2)
		h = xxMerge(h, v3)
		h = xxMerge(h, v4)
	} else {
		h = xxPrime5
	}
	h += n
	for ; len(b) >= 8; b = b[8:] {
		h ^= xxRound(0, binary.LittleEndian.Uint64(b))
		h = bits.RotateLeft64(h, 27)*xxPrime1 + xxPrime4
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
