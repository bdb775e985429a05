// Package ids implements the 160-bit circular identifier space shared by
// Pastry nodeIds and PeerStripe block keys.
//
// Identifiers are SHA-1 digests (as in the paper, §4.1) interpreted as
// unsigned big-endian integers on a ring of size 2^160. The package
// provides the ring arithmetic Pastry needs: numeric distance with
// wraparound, clockwise/counter-clockwise ordering, and base-2^b digit
// extraction (b = 4, i.e. hex digits) for prefix routing.
package ids

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"math/rand"
)

// Bits is the width of an identifier in bits.
const Bits = 160

// Bytes is the width of an identifier in bytes.
const Bytes = Bits / 8

// DigitBits is Pastry's b parameter: identifiers are read as a sequence
// of base-2^b digits for prefix routing. b=4 gives hex digits, the
// configuration used by FreePastry and by the paper.
const DigitBits = 4

// Digits is the number of base-2^DigitBits digits in an identifier.
const Digits = Bits / DigitBits

// ID is a 160-bit identifier on the ring.
type ID [Bytes]byte

// FromName returns the identifier for a block or file name: the SHA-1
// hash of the name (paper §4.1, Figure 2).
func FromName(name string) ID {
	return ID(sha1.Sum([]byte(name)))
}

// FromBytes is FromName for a name held as bytes.
func FromBytes(name []byte) ID {
	return ID(sha1.Sum(name))
}

// FromUint64 returns an identifier whose low 64 bits are v and whose
// remaining bits are zero. Useful for constructing well-spaced test IDs.
func FromUint64(v uint64) ID {
	var id ID
	for i := 0; i < 8; i++ {
		id[Bytes-1-i] = byte(v >> (8 * i))
	}
	return id
}

// Random returns a uniformly random identifier drawn from rng.
// Node identifiers in the simulator are assigned this way, matching the
// paper's "random nodeId assignment".
func Random(rng *rand.Rand) ID {
	var id ID
	for i := range id {
		id[i] = byte(rng.Intn(256))
	}
	return id
}

// Parse parses a 40-character hex string into an ID.
func Parse(s string) (ID, error) {
	var id ID
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("ids: parse %q: %w", s, err)
	}
	if len(b) != Bytes {
		return id, fmt.Errorf("ids: parse %q: need %d bytes, got %d", s, Bytes, len(b))
	}
	copy(id[:], b)
	return id, nil
}

// String returns the full lowercase hex representation.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// Short returns an abbreviated hex prefix for logs.
func (id ID) Short() string { return hex.EncodeToString(id[:4]) }

// Cmp compares a and b as unsigned big-endian integers:
// -1 if a < b, 0 if equal, +1 if a > b.
func (id ID) Cmp(b ID) int {
	for i := 0; i < Bytes; i++ {
		switch {
		case id[i] < b[i]:
			return -1
		case id[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Less reports whether id < b numerically.
func (id ID) Less(b ID) bool { return id.Cmp(b) < 0 }

// Digit returns the i-th base-2^DigitBits digit of the identifier,
// counting from the most significant digit (i = 0).
func (id ID) Digit(i int) int {
	b := id[i/2]
	if i%2 == 0 {
		return int(b >> 4)
	}
	return int(b & 0x0f)
}

// CommonPrefixLen returns the number of leading base-2^DigitBits digits
// shared by a and b. This is the quantity Pastry prefix routing advances.
func (id ID) CommonPrefixLen(b ID) int {
	for i := 0; i < Digits; i++ {
		if id.Digit(i) != b.Digit(i) {
			return i
		}
	}
	return Digits
}

// Sub returns (id - b) mod 2^160: the clockwise distance from b to id.
func (id ID) Sub(b ID) ID {
	var out ID
	borrow := 0
	for i := Bytes - 1; i >= 0; i-- {
		d := int(id[i]) - int(b[i]) - borrow
		if d < 0 {
			d += 256
			borrow = 1
		} else {
			borrow = 0
		}
		out[i] = byte(d)
	}
	return out
}

// Add returns (id + b) mod 2^160.
func (id ID) Add(b ID) ID {
	var out ID
	carry := 0
	for i := Bytes - 1; i >= 0; i-- {
		s := int(id[i]) + int(b[i]) + carry
		out[i] = byte(s)
		carry = s >> 8
	}
	return out
}

// Dist returns the minimal ring distance between a and b, i.e.
// min((a-b) mod 2^160, (b-a) mod 2^160). It is the metric Pastry uses to
// decide which node is "numerically closest" to a key.
func (id ID) Dist(b ID) ID {
	d1 := id.Sub(b)
	d2 := b.Sub(id)
	if d1.Cmp(d2) <= 0 {
		return d1
	}
	return d2
}

// Between reports whether x lies in the half-open clockwise arc (a, b].
// When a == b the arc covers the whole ring and Between reports x != a ||
// x == b (i.e. true: the single-node ring owns everything).
func Between(x, a, b ID) bool {
	ca, cb := a.Cmp(b), 0
	_ = cb
	if ca == 0 {
		return true
	}
	ax := a.Cmp(x)
	xb := x.Cmp(b)
	if ca < 0 { // no wraparound: a < b
		return ax < 0 && xb <= 0
	}
	// wraparound: arc covers (a, 2^160) ∪ [0, b]
	return ax < 0 || xb <= 0
}

// IsZero reports whether the identifier is all zeros.
func (id ID) IsZero() bool {
	for _, b := range id {
		if b != 0 {
			return false
		}
	}
	return true
}
