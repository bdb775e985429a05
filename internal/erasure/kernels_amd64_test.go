//go:build amd64 && !noasm

package erasure

import "testing"

// TestGFAffineTabMatchesGFMul pins the GFNI matrix construction to the
// field's scalar multiply for every (coefficient, byte) pair, by
// evaluating the affine transform in software exactly as
// VGF2P8AFFINEQB does: output bit i = parity(matrix row at byte 7-i
// AND input byte).
func TestGFAffineTabMatchesGFMul(t *testing.T) {
	for c := 1; c < 256; c++ {
		m := gfAffineTab[c]
		for b := 0; b < 256; b++ {
			var got byte
			for i := 0; i < 8; i++ {
				row := byte(m >> (8 * (7 - i)))
				if popcount8(row&byte(b))&1 == 1 {
					got |= 1 << i
				}
			}
			if want := gfMul(byte(c), byte(b)); got != want {
				t.Fatalf("affine tab: %#02x·%#02x = %#02x, want %#02x", c, b, got, want)
			}
		}
	}
}

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}
