package erasure

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// kernelLens covers the vector/word loop edges: empty, sub-word,
// word-aligned, word+1, the 32-byte SIMD group boundary, the 64- and
// 128-byte unroll boundaries, and odd block-ish sizes.
var kernelLens = []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 96, 127, 128, 129, 255, 1021, 1024}

// kernelOffsets shifts inputs off natural alignment so the unaligned
// head/tail paths of the SIMD kernels are exercised.
var kernelOffsets = []int{0, 1, 3, 7}

// unaligned returns a length-n random slice starting off bytes into its
// backing array.
func unaligned(rng *rand.Rand, n, off int) []byte {
	b := make([]byte, n+off)
	rng.Read(b)
	return b[off : off+n : off+n]
}

// TestKernelsAgree cross-checks every registered implementation
// (portable word/nibble kernels plus, when the CPU supports it, the
// SIMD set) against the byte-at-a-time scalar reference, on random
// data over edge-case lengths and unaligned heads.
func TestKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	coeffs := []byte{0, 1, 2, 3, 0x1d, 0x80, 0xff}
	for i := 0; i < 8; i++ {
		coeffs = append(coeffs, byte(rng.Intn(254)+2))
	}
	for _, ks := range kernelSetsForTest[1:] { // [0] is the reference itself
		t.Run(ks.name, func(t *testing.T) {
			for _, n := range kernelLens {
				for _, off := range kernelOffsets {
					dst := unaligned(rng, n, off)
					src := unaligned(rng, n, off+1) // src and dst mutually misaligned
					want := append([]byte(nil), dst...)
					got := append([]byte(nil), dst...)

					scalarKernels.xorInto(want, src)
					ks.xorInto(got, src)
					if !bytes.Equal(got, want) {
						t.Fatalf("xorInto len %d off %d disagrees with scalar", n, off)
					}

					for _, c := range coeffs {
						copy(want, dst)
						copy(got, dst)
						scalarKernels.gfMul(want, src, c)
						ks.gfMul(got, src, c)
						if !bytes.Equal(got, want) {
							t.Fatalf("gfMul len %d off %d coeff %#02x disagrees with scalar", n, off, c)
						}
						copy(want, dst)
						copy(got, dst)
						scalarKernels.gfMulXor(want, src, c)
						ks.gfMulXor(got, src, c)
						if !bytes.Equal(got, want) {
							t.Fatalf("gfMulXor len %d off %d coeff %#02x disagrees with scalar", n, off, c)
						}
					}
				}
			}
		})
	}
}

// TestXorBlocksAgree checks the fused N-source XOR against the scalar
// reference for every source count that exercises the 4/2/1 grouping,
// with mutually misaligned sources.
func TestXorBlocksAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, ks := range kernelSetsForTest[1:] {
		t.Run(ks.name, func(t *testing.T) {
			for _, n := range kernelLens {
				for nsrc := 0; nsrc <= 9; nsrc++ {
					dst := unaligned(rng, n, 1)
					srcs := make([][]byte, nsrc)
					for i := range srcs {
						srcs[i] = unaligned(rng, n, i%5)
					}
					want := append([]byte(nil), dst...)
					got := append([]byte(nil), dst...)
					scalarKernels.xorBlocks(want, srcs)
					ks.xorBlocks(got, srcs)
					if !bytes.Equal(got, want) {
						t.Fatalf("xorBlocks len %d nsrc %d disagrees with scalar", n, nsrc)
					}
					copy(want, dst)
					copy(got, dst)
					scalarKernels.xorBlocksSet(want, srcs)
					ks.xorBlocksSet(got, srcs)
					if !bytes.Equal(got, want) {
						t.Fatalf("xorBlocksSet len %d nsrc %d disagrees with scalar", n, nsrc)
					}
				}
			}
		})
	}
}

// TestNibbleTablesMatchGFMul pins the table construction to the field's
// scalar multiply for every (coefficient, byte) pair.
func TestNibbleTablesMatchGFMul(t *testing.T) {
	for c := 0; c < 256; c++ {
		for b := 0; b < 256; b++ {
			want := gfMul(byte(c), byte(b))
			got := gfMulTab[c][b&0x0f] ^ gfMulTab[c][16+(b>>4)]
			if got != want {
				t.Fatalf("tables: %#02x·%#02x = %#02x, want %#02x", c, b, got, want)
			}
		}
	}
}

// TestKernelImpl sanity-checks the dispatch report against the sets a
// build can carry.
func TestKernelImpl(t *testing.T) {
	switch tier := KernelTier(); tier {
	case "portable", "avx2", "avx512", "gfni", "neon", "scalar":
	default:
		t.Fatalf("KernelTier() = %q, want a registered tier name", tier)
	}
	if impl := KernelImpl(); !strings.HasPrefix(impl, KernelTier()) {
		t.Fatalf("KernelImpl() = %q does not lead with the tier %q", impl, KernelTier())
	}
	// Registered tiers must be resolvable by name (the PS_KERNELS /
	// forceKernels lookup path).
	for _, ks := range kernelSetsForTest {
		if _, ok := kernelByName(ks.name); !ok {
			t.Fatalf("kernelByName(%q) not resolvable", ks.name)
		}
	}
}

// TestKernelOverrideHonored asserts that when PS_KERNELS names a tier
// this build/CPU carries, dispatch actually selected it — the assertion
// that gives the CI kernel-matrix legs their teeth. Without PS_KERNELS
// (or with an unavailable tier, e.g. gfni on an AVX2-only runner) it
// verifies the fallback kept the best tier and the report says so.
func TestKernelOverrideHonored(t *testing.T) {
	req := os.Getenv("PS_KERNELS")
	if req == "" {
		t.Skip("PS_KERNELS not set")
	}
	if _, ok := kernelByName(req); ok {
		want := req
		if want == "noasm" {
			want = "portable"
		}
		if KernelTier() != want {
			t.Fatalf("PS_KERNELS=%s but active tier is %q", req, KernelTier())
		}
		if !strings.Contains(KernelImpl(), "forced: PS_KERNELS="+req) {
			t.Fatalf("KernelImpl() = %q does not report the honored override", KernelImpl())
		}
		return
	}
	if !strings.Contains(KernelImpl(), "PS_KERNELS="+req+" unavailable") {
		t.Fatalf("KernelImpl() = %q does not report the unavailable override", KernelImpl())
	}
}

// TestForceKernels exercises the test-forcing hook across every tier
// name, including the ones this build cannot run (must report !ok, not
// misdispatch), and proves restore() puts the hot set back.
func TestForceKernels(t *testing.T) {
	orig := KernelTier()
	for _, name := range []string{"portable", "noasm", "scalar", "avx2", "avx512", "gfni", "neon"} {
		restore, ok := forceKernels(name)
		if !ok {
			if _, resolvable := kernelByName(name); resolvable {
				t.Fatalf("forceKernels(%q) refused a resolvable tier", name)
			}
			continue
		}
		want := name
		if name == "noasm" {
			want = "portable"
		}
		if KernelTier() != want {
			t.Fatalf("forceKernels(%q): active tier %q", name, KernelTier())
		}
		// The forced set must actually compute: a tiny round trip.
		dst, src := make([]byte, 96), make([]byte, 96)
		for i := range src {
			src[i] = byte(i * 7)
		}
		gfMulSet(dst, src, 0x1d)
		gfMulXor(dst, src, 0x8e)
		want2, got2 := make([]byte, 96), dst
		scalarKernels.gfMul(want2, src, 0x1d)
		scalarKernels.gfMulXor(want2, src, 0x8e)
		if !bytes.Equal(got2, want2) {
			t.Fatalf("forceKernels(%q): kernels disagree with scalar", name)
		}
		restore()
		if KernelTier() != orig {
			t.Fatalf("restore after %q left tier %q, want %q", name, KernelTier(), orig)
		}
	}
	if _, ok := forceKernels("no-such-tier"); ok {
		t.Fatal("forceKernels accepted an unknown tier")
	}
}

func TestKernelWrappersZeroAllocs(t *testing.T) {
	dst := make([]byte, 4096)
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i)
	}
	srcs := [][]byte{src, dst[:len(src)], src, src, src}
	cases := []struct {
		name string
		fn   func()
	}{
		{"xorInto", func() { xorInto(dst, src) }},
		{"xorBlocks", func() { xorBlocks(dst, srcs) }},
		{"gfMulSet", func() { gfMulSet(dst, src, 0x53) }},
		{"gfMulXor", func() { gfMulXor(dst, src, 0x53) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s allocates %v per run, want 0", tc.name, n)
		}
	}
}

func TestScratchPoolRoundTrip(t *testing.T) {
	b := getBuf(100)
	if len(b) != 100 {
		t.Fatalf("getBuf len = %d", len(b))
	}
	for _, v := range b {
		if v != 0 {
			t.Fatal("getBuf returned a dirty buffer")
		}
	}
	b[0] = 0xaa
	putBuf(b)
	// A re-get at the same size must come back zeroed again.
	c := getBuf(100)
	for _, v := range c {
		if v != 0 {
			t.Fatal("pooled buffer not re-zeroed")
		}
	}
	putBuf(c)
	putBuf(nil) // zero-cap put is a no-op, not a panic
}

func BenchmarkXorInto4KB(b *testing.B) {
	dst := make([]byte, 4096)
	src := make([]byte, 4096)
	b.SetBytes(4096)
	for b.Loop() {
		xorInto(dst, src)
	}
}

func BenchmarkXorIntoScalar4KB(b *testing.B) {
	dst := make([]byte, 4096)
	src := make([]byte, 4096)
	b.SetBytes(4096)
	for b.Loop() {
		xorIntoScalar(dst, src)
	}
}

func BenchmarkXorIntoWords4KB(b *testing.B) {
	dst := make([]byte, 4096)
	src := make([]byte, 4096)
	b.SetBytes(4096)
	for b.Loop() {
		xorIntoWords(dst, src)
	}
}

// BenchmarkXorBlocks4KB measures the fused N-source XOR against N
// one-source passes at the online code's typical fan-in.
func BenchmarkXorBlocks4KB(b *testing.B) {
	for _, nsrc := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("srcs%d", nsrc), func(b *testing.B) {
			dst := make([]byte, 4096)
			srcs := make([][]byte, nsrc)
			for i := range srcs {
				srcs[i] = make([]byte, 4096)
			}
			b.SetBytes(int64(4096 * nsrc))
			for b.Loop() {
				xorBlocks(dst, srcs)
			}
		})
	}
}

func BenchmarkGFMulSet4KB(b *testing.B) {
	dst := make([]byte, 4096)
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i)
	}
	b.SetBytes(4096)
	for b.Loop() {
		gfMulSet(dst, src, 0x53)
	}
}

func BenchmarkGFMulXor4KB(b *testing.B) {
	dst := make([]byte, 4096)
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i)
	}
	b.SetBytes(4096)
	for b.Loop() {
		gfMulXor(dst, src, 0x53)
	}
}

func BenchmarkGFMulXorScalar4KB(b *testing.B) {
	dst := make([]byte, 4096)
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i)
	}
	b.SetBytes(4096)
	for b.Loop() {
		gfMulXorScalar(dst, src, 0x53)
	}
}
