package core

import (
	"math/bits"
	"testing"
)

// refXXH64 is the XXH64 specification transcribed as a streaming
// digest fed one byte at a time: words are assembled from single bytes
// and a stripe is consumed only when its 32nd byte arrives. It shares
// no code with xxh64 beyond the five primes, and is what the one-shot
// form is checked against.
type refXXH64 struct {
	v     [4]uint64
	mem   [32]byte
	fill  int
	total uint64
}

func newRefXXH64() *refXXH64 {
	d := &refXXH64{}
	d.v[0] = xxPrime1
	d.v[0] += xxPrime2
	d.v[1] = xxPrime2
	d.v[3] -= xxPrime1
	return d
}

func refWord(b []byte) uint64 {
	var w uint64
	for i := len(b) - 1; i >= 0; i-- {
		w = w<<8 | uint64(b[i])
	}
	return w
}

func (d *refXXH64) writeByte(c byte) {
	d.mem[d.fill] = c
	d.fill++
	d.total++
	if d.fill < 32 {
		return
	}
	for lane := 0; lane < 4; lane++ {
		acc := d.v[lane] + refWord(d.mem[8*lane:8*lane+8])*xxPrime2
		d.v[lane] = bits.RotateLeft64(acc, 31) * xxPrime1
	}
	d.fill = 0
}

func (d *refXXH64) sum() uint64 {
	var h uint64
	if d.total >= 32 {
		h = bits.RotateLeft64(d.v[0], 1) + bits.RotateLeft64(d.v[1], 7) +
			bits.RotateLeft64(d.v[2], 12) + bits.RotateLeft64(d.v[3], 18)
		for _, v := range d.v {
			v = bits.RotateLeft64(v*xxPrime2, 31) * xxPrime1
			h = (h^v)*xxPrime1 + xxPrime4
		}
	} else {
		h = xxPrime5
	}
	h += d.total
	rest := d.mem[:d.fill]
	for ; len(rest) >= 8; rest = rest[8:] {
		k := bits.RotateLeft64(refWord(rest[:8])*xxPrime2, 31) * xxPrime1
		h = bits.RotateLeft64(h^k, 27)*xxPrime1 + xxPrime4
	}
	if len(rest) >= 4 {
		h = bits.RotateLeft64(h^refWord(rest[:4])*xxPrime1, 23)*xxPrime2 + xxPrime3
		rest = rest[4:]
	}
	for _, c := range rest {
		h = bits.RotateLeft64(h^uint64(c)*xxPrime5, 11) * xxPrime1
	}
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

func refSum(b []byte) uint64 {
	d := newRefXXH64()
	for _, c := range b {
		d.writeByte(c)
	}
	return d.sum()
}

// xxPattern is the test input of a given length: byte i is the top
// byte of i × 2654435761 in 32-bit arithmetic.
func xxPattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(uint32(i) * 2654435761 >> 24)
	}
	return b
}

// TestXXH64Vectors checks the one-shot hash against values produced by
// the reference C implementation (libxxhash 0.8.1, XXH64, seed 0). The
// string inputs are the vectors xxHash's documentation and Go's
// internal/zstd tests publish; the pattern inputs straddle the 32-byte
// stripe boundary and run the bulk loop for over a mebibyte.
func TestXXH64Vectors(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"abc", 0x44bc2cf5ad770999},
		{"hello, world", 0xb33a384e6d1b1242},
		{"Nobody inspects the spammish repetition", 0xfbcea83c8a378bf1},
		{"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789$", 0x1032d841e824f998},
	} {
		if got := xxh64([]byte(tc.in)); got != tc.want {
			t.Errorf("xxh64(%q) = %016x, want %016x", tc.in, got, tc.want)
		}
	}
	for _, tc := range []struct {
		n    int
		want uint64
	}{
		{0, 0xef46db3751d8e999},
		{1, 0xe934a84adb052768},
		{31, 0x4071dd1310fa5da9},
		{32, 0x13ee8a64346f0691},
		{33, 0xf75619499e2e2e99},
		{1<<20 + 17, 0xb4b206cb41813151},
	} {
		in := xxPattern(tc.n)
		if got := xxh64(in); got != tc.want {
			t.Errorf("xxh64(pattern %d) = %016x, want %016x", tc.n, got, tc.want)
		}
		if got := refSum(in); got != tc.want {
			t.Errorf("reference(pattern %d) = %016x, want %016x", tc.n, got, tc.want)
		}
	}
}

// TestXXH64Differential runs every length 0–257 at every sub-slice
// offset 0–8 of one buffer, so the word loads see each misalignment
// and every tail length follows every stripe count.
func TestXXH64Differential(t *testing.T) {
	buf := xxPattern(257 + 8)
	for off := 0; off <= 8; off++ {
		for n := 0; n <= 257; n++ {
			in := buf[off : off+n : off+n]
			if got, want := xxh64(in), refSum(in); got != want {
				t.Fatalf("offset %d length %d: xxh64 = %016x, reference = %016x", off, n, got, want)
			}
		}
	}
}

// TestChunkSumNeverZero pins the reserved "no sum" value: whatever the
// hash returns, a stored sum is non-zero, and otherwise ChunkSum is the
// hash itself.
func TestChunkSumNeverZero(t *testing.T) {
	for n := 0; n <= 4096; n++ {
		in := xxPattern(n)
		got := ChunkSum(in)
		if got == 0 {
			t.Fatalf("ChunkSum of %d bytes is the reserved 0", n)
		}
		if h := xxh64(in); h != 0 && got != h {
			t.Fatalf("ChunkSum of %d bytes = %016x, hash = %016x", n, got, h)
		}
	}
}

// FuzzChunkSum: the one-shot sum equals the byte-at-a-time reference
// on arbitrary input.
func FuzzChunkSum(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("a"))
	f.Add(xxPattern(31))
	f.Add(xxPattern(32))
	f.Add(xxPattern(33))
	f.Add(xxPattern(1000))
	f.Fuzz(func(t *testing.T, data []byte) {
		want := refSum(data)
		if want == 0 {
			want = 1
		}
		if got := ChunkSum(data); got != want {
			t.Fatalf("ChunkSum(%d bytes) = %016x, reference = %016x", len(data), got, want)
		}
	})
}

var sumSink uint64

func BenchmarkChunkSum(b *testing.B) {
	data := xxPattern(1 << 20)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		sumSink += ChunkSum(data)
	}
}
