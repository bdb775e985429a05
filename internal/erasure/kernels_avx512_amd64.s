//go:build amd64 && !noasm

// AVX-512 / GFNI erasure kernels. Contract (enforced by the Go
// wrappers in kernels_amd64.go): n is a positive multiple of 64 and
// every pointed-to range is at least n bytes. Loads and stores are
// unaligned (VMOVDQU64).
//
// The GF(256) kernels come in two flavours:
//   - *Shuf512*: the AVX2 nibble-table technique (VPSHUFB, needs
//     AVX-512BW for the ZMM form) at 64 bytes per shuffle pair, fed by
//     the same 32-byte gfMulTab rows VBROADCASTI32X4 splats into all
//     four 128-bit lanes.
//   - *Affine*: GFNI. One VGF2P8AFFINEQB evaluates the whole 8×8
//     GF(2) matrix of "multiply by c" per byte — the matrix comes from
//     gfAffineTab (kernels_amd64.go), which is what makes this work
//     for our 0x11d field even though VGF2P8MULB is hardwired to the
//     AES field 0x11b.
//
// Only ZMM0–ZMM15 are used, so a trailing VZEROUPPER restores clean
// upper state on every exit path.

#include "textflag.h"

DATA nibbleMaskZ<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMaskZ<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibbleMaskZ<>(SB), RODATA|NOPTR, $16

// func xorIntoBulkZ(dst, src *byte, n int)
// dst ^= src, 128 bytes per main iteration.
TEXT ·xorIntoBulkZ(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

zxi_loop128:
	CMPQ CX, $128
	JL   zxi_tail64
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VPXORQ    (DI), Z0, Z0
	VPXORQ    64(DI), Z1, Z1
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $128, CX
	JMP  zxi_loop128

zxi_tail64:
	TESTQ CX, CX
	JZ    zxi_done
	VMOVDQU64 (SI), Z0
	VPXORQ    (DI), Z0, Z0
	VMOVDQU64 Z0, (DI)

zxi_done:
	VZEROUPPER
	RET

// func xorAcc2BulkZ(dst, a, b *byte, n int)
// dst ^= a ^ b in one pass over dst, 128 bytes per main iteration.
TEXT ·xorAcc2BulkZ(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ n+24(FP), CX

zx2_loop128:
	CMPQ CX, $128
	JL   zx2_tail64
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VPXORQ    (R8), Z0, Z0
	VPXORQ    64(R8), Z1, Z1
	VPXORQ    (DI), Z0, Z0
	VPXORQ    64(DI), Z1, Z1
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	ADDQ $128, SI
	ADDQ $128, R8
	ADDQ $128, DI
	SUBQ $128, CX
	JMP  zx2_loop128

zx2_tail64:
	TESTQ CX, CX
	JZ    zx2_done
	VMOVDQU64 (SI), Z0
	VPXORQ    (R8), Z0, Z0
	VPXORQ    (DI), Z0, Z0
	VMOVDQU64 Z0, (DI)

zx2_done:
	VZEROUPPER
	RET

// func xorAcc4BulkZ(dst, a, b, c, d *byte, n int)
// dst ^= a ^ b ^ c ^ d in one pass over dst: five read streams, one
// write stream, 128 bytes per main iteration.
TEXT ·xorAcc4BulkZ(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ c+24(FP), R9
	MOVQ d+32(FP), R10
	MOVQ n+40(FP), CX

zx4_loop128:
	CMPQ CX, $128
	JL   zx4_tail64
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VPXORQ    (R8), Z0, Z0
	VPXORQ    64(R8), Z1, Z1
	VPXORQ    (R9), Z0, Z0
	VPXORQ    64(R9), Z1, Z1
	VPXORQ    (R10), Z0, Z0
	VPXORQ    64(R10), Z1, Z1
	VPXORQ    (DI), Z0, Z0
	VPXORQ    64(DI), Z1, Z1
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	ADDQ $128, SI
	ADDQ $128, R8
	ADDQ $128, R9
	ADDQ $128, R10
	ADDQ $128, DI
	SUBQ $128, CX
	JMP  zx4_loop128

zx4_tail64:
	TESTQ CX, CX
	JZ    zx4_done
	VMOVDQU64 (SI), Z0
	VPXORQ    (R8), Z0, Z0
	VPXORQ    (R9), Z0, Z0
	VPXORQ    (R10), Z0, Z0
	VPXORQ    (DI), Z0, Z0
	VMOVDQU64 Z0, (DI)

zx4_done:
	VZEROUPPER
	RET

// func xorSet2BulkZ(dst, a, b *byte, n int)
// dst = a ^ b: overwrite form, no dst read.
TEXT ·xorSet2BulkZ(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ n+24(FP), CX

zs2_loop128:
	CMPQ CX, $128
	JL   zs2_tail64
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VPXORQ    (R8), Z0, Z0
	VPXORQ    64(R8), Z1, Z1
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	ADDQ $128, SI
	ADDQ $128, R8
	ADDQ $128, DI
	SUBQ $128, CX
	JMP  zs2_loop128

zs2_tail64:
	TESTQ CX, CX
	JZ    zs2_done
	VMOVDQU64 (SI), Z0
	VPXORQ    (R8), Z0, Z0
	VMOVDQU64 Z0, (DI)

zs2_done:
	VZEROUPPER
	RET

// func xorSet4BulkZ(dst, a, b, c, d *byte, n int)
// dst = a ^ b ^ c ^ d: overwrite form, no dst read.
TEXT ·xorSet4BulkZ(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ c+24(FP), R9
	MOVQ d+32(FP), R10
	MOVQ n+40(FP), CX

zs4_loop128:
	CMPQ CX, $128
	JL   zs4_tail64
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VPXORQ    (R8), Z0, Z0
	VPXORQ    64(R8), Z1, Z1
	VPXORQ    (R9), Z0, Z0
	VPXORQ    64(R9), Z1, Z1
	VPXORQ    (R10), Z0, Z0
	VPXORQ    64(R10), Z1, Z1
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	ADDQ $128, SI
	ADDQ $128, R8
	ADDQ $128, R9
	ADDQ $128, R10
	ADDQ $128, DI
	SUBQ $128, CX
	JMP  zs4_loop128

zs4_tail64:
	TESTQ CX, CX
	JZ    zs4_done
	VMOVDQU64 (SI), Z0
	VPXORQ    (R8), Z0, Z0
	VPXORQ    (R9), Z0, Z0
	VPXORQ    (R10), Z0, Z0
	VMOVDQU64 Z0, (DI)

zs4_done:
	VZEROUPPER
	RET

// func gfMulShuf512Bulk(dst, src *byte, n int, tab *byte)
// dst = c·src via VPSHUFB-512 nibble lookups, 64 bytes per iteration.
TEXT ·gfMulShuf512Bulk(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), AX
	VBROADCASTI32X4 (AX), Z14           // low-nibble products in all lanes
	VBROADCASTI32X4 16(AX), Z15         // high-nibble products
	VBROADCASTI32X4 nibbleMaskZ<>(SB), Z13

zgm_loop64:
	TESTQ CX, CX
	JZ    zgm_done
	VMOVDQU64 (SI), Z0
	VPSRLW    $4, Z0, Z2
	VPANDQ    Z13, Z0, Z0
	VPANDQ    Z13, Z2, Z2
	VPSHUFB   Z0, Z14, Z0
	VPSHUFB   Z2, Z15, Z2
	VPXORQ    Z2, Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $64, CX
	JMP  zgm_loop64

zgm_done:
	VZEROUPPER
	RET

// func gfMulXorShuf512Bulk(dst, src *byte, n int, tab *byte)
// dst ^= c·src: the fused multiply-accumulate.
TEXT ·gfMulXorShuf512Bulk(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), AX
	VBROADCASTI32X4 (AX), Z14
	VBROADCASTI32X4 16(AX), Z15
	VBROADCASTI32X4 nibbleMaskZ<>(SB), Z13

zgx_loop64:
	TESTQ CX, CX
	JZ    zgx_done
	VMOVDQU64 (SI), Z0
	VPSRLW    $4, Z0, Z2
	VPANDQ    Z13, Z0, Z0
	VPANDQ    Z13, Z2, Z2
	VPSHUFB   Z0, Z14, Z0
	VPSHUFB   Z2, Z15, Z2
	VPXORQ    Z2, Z0, Z0
	VPXORQ    (DI), Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $64, CX
	JMP  zgx_loop64

zgx_done:
	VZEROUPPER
	RET

// func gfMulAffineBulk(dst, src *byte, n int, mat uint64)
// dst = c·src via GFNI: one affine transform per 64 bytes, 128 bytes
// per main iteration.
TEXT ·gfMulAffineBulk(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VPBROADCASTQ mat+24(FP), Z3

zga_loop128:
	CMPQ CX, $128
	JL   zga_tail64
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VGF2P8AFFINEQB $0, Z3, Z0, Z0
	VGF2P8AFFINEQB $0, Z3, Z1, Z1
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $128, CX
	JMP  zga_loop128

zga_tail64:
	TESTQ CX, CX
	JZ    zga_done
	VMOVDQU64 (SI), Z0
	VGF2P8AFFINEQB $0, Z3, Z0, Z0
	VMOVDQU64 Z0, (DI)

zga_done:
	VZEROUPPER
	RET

// func gfMulXorAffineBulk(dst, src *byte, n int, mat uint64)
// dst ^= c·src via GFNI, fused with the accumulate.
TEXT ·gfMulXorAffineBulk(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VPBROADCASTQ mat+24(FP), Z3

zgb_loop128:
	CMPQ CX, $128
	JL   zgb_tail64
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VGF2P8AFFINEQB $0, Z3, Z0, Z0
	VGF2P8AFFINEQB $0, Z3, Z1, Z1
	VPXORQ    (DI), Z0, Z0
	VPXORQ    64(DI), Z1, Z1
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $128, CX
	JMP  zgb_loop128

zgb_tail64:
	TESTQ CX, CX
	JZ    zgb_done
	VMOVDQU64 (SI), Z0
	VGF2P8AFFINEQB $0, Z3, Z0, Z0
	VPXORQ    (DI), Z0, Z0
	VMOVDQU64 Z0, (DI)

zgb_done:
	VZEROUPPER
	RET
