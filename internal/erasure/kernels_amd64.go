//go:build amd64 && !noasm

package erasure

import "strings"

// simdName is what KernelImpl reports when the AVX2 tier wins.
const simdName = "avx2"

// cpuid and xgetbv are implemented in kernels_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// x86Features is the dispatch-relevant slice of CPUID: each field means
// "the instructions exist AND the OS saves the register state they
// touch", so a true field is directly runnable.
type x86Features struct {
	avx2   bool // AVX2 + OS YMM state
	avx512 bool // AVX-512F+BW (ZMM VPSHUFB/VPSRLW need BW) + OS ZMM state
	gfni   bool // GFNI on top of avx512 (we only emit the EVEX Z forms)
}

// detectX86 probes CPUID/XGETBV once at init — the same ladder
// golang.org/x/sys/cpu climbs: OSXSAVE, then XGETBV for which register
// states the OS saves (0x6 = XMM+YMM; 0xe6 adds opmask + ZMM_Hi256 +
// Hi16_ZMM), then the leaf-7 feature bits. It also fills kernelCPU with
// the raw features found, for KernelImpl's report.
func detectX86() x86Features {
	var f x86Features
	var found []string
	defer func() { kernelCPU = strings.Join(found, " ") }()
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return f
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsaveAndAVX = 1<<27 | 1<<28
	if ecx1&osxsaveAndAVX != osxsaveAndAVX {
		return f
	}
	xcr0, _ := xgetbv()
	osYMM := xcr0&0x6 == 0x6
	osZMM := xcr0&0xe6 == 0xe6
	_, ebx7, ecx7, _ := cpuid(7, 0)
	avx2 := ebx7&(1<<5) != 0
	avx512f := ebx7&(1<<16) != 0
	avx512bw := ebx7&(1<<30) != 0
	gfni := ecx7&(1<<8) != 0
	for _, b := range []struct {
		on   bool
		name string
	}{
		{avx2, "avx2"},
		{avx512f, "avx512f"},
		{avx512bw, "avx512bw"},
		{gfni, "gfni"},
		{!osZMM && avx512f, "no-os-zmm"},
	} {
		if b.on {
			found = append(found, b.name)
		}
	}
	f.avx2 = avx2 && osYMM
	f.avx512 = avx512f && avx512bw && osZMM
	f.gfni = f.avx512 && gfni
	return f
}

// archKernelSets returns the SIMD tiers this CPU can run, in ascending
// preference order; kernels_asm.go's init makes the last one hot.
func archKernelSets() []kernelSet {
	f := detectX86()
	var sets []kernelSet
	if f.avx2 {
		sets = append(sets, simdKernels)
	}
	if f.avx512 {
		sets = append(sets, avx512Kernels)
	}
	if f.gfni {
		sets = append(sets, gfniKernels)
	}
	return sets
}

// gfAffineTab[c] is the 8×8 GF(2) bit-matrix of "multiply by c" in
// GF(2^8)/0x11d, in VGF2P8AFFINEQB's qword layout: the row for output
// bit i sits at byte 7-i, and bit k of that row is set when input bit k
// contributes to output bit i (i.e. bit i of gfMul(c, 1<<k)). Any
// GF(2)-linear byte map fits this form, which is what lets GFNI evaluate
// our 0x11d field even though VGF2P8MULB is hardwired to 0x11b.
var gfAffineTab [256]uint64

func init() {
	for c := 1; c < 256; c++ {
		var m uint64
		for i := 0; i < 8; i++ {
			var row byte
			for k := 0; k < 8; k++ {
				if gfMul(byte(c), 1<<k)>>i&1 == 1 {
					row |= 1 << k
				}
			}
			m |= uint64(row) << (8 * (7 - i))
		}
		gfAffineTab[c] = m
	}
}

// bulkStep64 is the byte granularity of the AVX-512 assembly loops
// (kernels_avx512_amd64.s); sub-group tails go to the portable kernels.
const bulkStep64 = 64

// The raw AVX-512 assembly entry points. n must be a positive multiple
// of bulkStep64; every pointed-to range must be at least n bytes. tab
// points at gfMulTab[c] (16 low-nibble products, 16 high); mat is
// gfAffineTab[c].
//
//go:noescape
func xorIntoBulkZ(dst, src *byte, n int)

//go:noescape
func xorAcc2BulkZ(dst, a, b *byte, n int)

//go:noescape
func xorAcc4BulkZ(dst, a, b, c, d *byte, n int)

//go:noescape
func xorSet2BulkZ(dst, a, b *byte, n int)

//go:noescape
func xorSet4BulkZ(dst, a, b, c, d *byte, n int)

//go:noescape
func gfMulShuf512Bulk(dst, src *byte, n int, tab *byte)

//go:noescape
func gfMulXorShuf512Bulk(dst, src *byte, n int, tab *byte)

//go:noescape
func gfMulAffineBulk(dst, src *byte, n int, mat uint64)

//go:noescape
func gfMulXorAffineBulk(dst, src *byte, n int, mat uint64)

func xorIntoZ(dst, src []byte) {
	n := len(dst) &^ (bulkStep64 - 1)
	if n > 0 {
		xorIntoBulkZ(&dst[0], &src[0], n)
	}
	if n < len(dst) {
		xorIntoWords(dst[n:], src[n:len(dst)])
	}
}

// xorBlocksZ folds sources four (then two) at a time through the fused
// 64-byte-group kernels, mirroring xorBlocksSIMD.
func xorBlocksZ(dst []byte, srcs [][]byte) {
	n := len(dst) &^ (bulkStep64 - 1)
	i := 0
	if n > 0 {
		d := &dst[0]
		for ; i+4 <= len(srcs); i += 4 {
			xorAcc4BulkZ(d, &srcs[i][0], &srcs[i+1][0], &srcs[i+2][0], &srcs[i+3][0], n)
		}
		if i+2 <= len(srcs) {
			xorAcc2BulkZ(d, &srcs[i][0], &srcs[i+1][0], n)
			i += 2
		}
		if i < len(srcs) {
			xorIntoBulkZ(d, &srcs[i][0], n)
			i++
		}
	}
	if n < len(dst) {
		for _, s := range srcs {
			xorIntoWords(dst[n:], s[n:len(dst)])
		}
	}
}

// xorBlocksSetZ is the overwrite form: the first source group is
// written straight over dst, then the rest accumulate.
func xorBlocksSetZ(dst []byte, srcs [][]byte) {
	switch {
	case len(srcs) == 0:
		clear(dst)
		return
	case len(srcs) == 1:
		copy(dst, srcs[0])
		return
	}
	n := len(dst) &^ (bulkStep64 - 1)
	i := 0
	if n > 0 {
		d := &dst[0]
		if len(srcs) >= 4 {
			xorSet4BulkZ(d, &srcs[0][0], &srcs[1][0], &srcs[2][0], &srcs[3][0], n)
			i = 4
		} else {
			xorSet2BulkZ(d, &srcs[0][0], &srcs[1][0], n)
			i = 2
		}
		for ; i+4 <= len(srcs); i += 4 {
			xorAcc4BulkZ(d, &srcs[i][0], &srcs[i+1][0], &srcs[i+2][0], &srcs[i+3][0], n)
		}
		if i+2 <= len(srcs) {
			xorAcc2BulkZ(d, &srcs[i][0], &srcs[i+1][0], n)
			i += 2
		}
		if i < len(srcs) {
			xorIntoBulkZ(d, &srcs[i][0], n)
			i++
		}
	}
	if n < len(dst) {
		xorSet2Words(dst[n:], srcs[0][n:len(dst)], srcs[1][n:len(dst)])
		for _, s := range srcs[2:] {
			xorIntoWords(dst[n:], s[n:len(dst)])
		}
	}
}

// gfMulShuf512 / gfMulXorShuf512 are the AVX-512BW nibble-table
// multiplies — the AVX2 technique at twice the vector width.
func gfMulShuf512(dst, src []byte, c byte) {
	if c == 0 {
		clear(dst[:len(src)])
		return
	}
	if c == 1 {
		copy(dst[:len(src)], src)
		return
	}
	n := len(src) &^ (bulkStep64 - 1)
	if n > 0 {
		gfMulShuf512Bulk(&dst[0], &src[0], n, &gfMulTab[c][0])
	}
	if n < len(src) {
		gfMulNibble(dst[n:], src[n:], c)
	}
}

func gfMulXorShuf512(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		xorIntoZ(dst[:len(src)], src)
		return
	}
	n := len(src) &^ (bulkStep64 - 1)
	if n > 0 {
		gfMulXorShuf512Bulk(&dst[0], &src[0], n, &gfMulTab[c][0])
	}
	if n < len(src) {
		gfMulXorNibble(dst[n:], src[n:], c)
	}
}

// gfMulAffine / gfMulXorAffine are the GFNI multiplies: one
// VGF2P8AFFINEQB per 64 bytes replaces the shift/mask/shuffle/xor
// nibble dance entirely.
func gfMulAffine(dst, src []byte, c byte) {
	if c == 0 {
		clear(dst[:len(src)])
		return
	}
	if c == 1 {
		copy(dst[:len(src)], src)
		return
	}
	n := len(src) &^ (bulkStep64 - 1)
	if n > 0 {
		gfMulAffineBulk(&dst[0], &src[0], n, gfAffineTab[c])
	}
	if n < len(src) {
		gfMulNibble(dst[n:], src[n:], c)
	}
}

func gfMulXorAffine(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		xorIntoZ(dst[:len(src)], src)
		return
	}
	n := len(src) &^ (bulkStep64 - 1)
	if n > 0 {
		gfMulXorAffineBulk(&dst[0], &src[0], n, gfAffineTab[c])
	}
	if n < len(src) {
		gfMulXorNibble(dst[n:], src[n:], c)
	}
}

var (
	avx512Kernels = kernelSet{"avx512", xorIntoZ, xorBlocksZ, xorBlocksSetZ, gfMulShuf512, gfMulXorShuf512}
	gfniKernels   = kernelSet{"gfni", xorIntoZ, xorBlocksZ, xorBlocksSetZ, gfMulAffine, gfMulXorAffine}
)
