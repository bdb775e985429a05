package erasure

import (
	"fmt"
)

// RS is a systematic Reed-Solomon code over GF(2^8): n data blocks plus
// k parity blocks, decodable from *any* n of the n+k encoded blocks —
// the "optimal erasure code" (ε = 0) of §2.2. The encoding matrix is a
// Vandermonde matrix normalised so its top n×n block is the identity
// (systematic form); any n of its rows remain linearly independent, the
// property decoding relies on.
//
// The field bounds the stripe: n+k ≤ 255. That constraint is why
// wide-striped systems reach for rateless codes — PeerStripe's 4096
// blocks per chunk is out of RS's reach without a larger field — and it
// is part of the trade-off the psbench coding ablation quantifies.
type RS struct {
	n, k int
	enc  *gfMatrix // (n+k) × n
}

// NewRS builds an RS(n, n+k) code.
func NewRS(n, k int) (*RS, error) {
	if n < 1 || k < 1 {
		return nil, fmt.Errorf("erasure: rs needs n,k >= 1, got n=%d k=%d", n, k)
	}
	if n+k > 255 {
		return nil, fmt.Errorf("erasure: rs over GF(256) needs n+k <= 255, got %d", n+k)
	}
	// Vandermonde rows: v[r][c] = r^c for r in 1..n+k (row 0 would be
	// degenerate at r=0 only for c=0; using 0..n+k-1 with 0^0=1 is the
	// classic construction).
	v := newGFMatrix(n+k, n)
	for r := 0; r < n+k; r++ {
		for c := 0; c < n; c++ {
			v.set(r, c, gfPow(byte(r+1), c))
		}
	}
	// Systematise: multiply by the inverse of the top n×n block so the
	// top becomes the identity. Row independence is preserved.
	top := v.subRows(seqInts(0, n))
	topInv, ok := top.invert()
	if !ok {
		return nil, fmt.Errorf("erasure: rs vandermonde top block singular (n=%d k=%d)", n, k)
	}
	return &RS{n: n, k: k, enc: v.mul(topInv)}, nil
}

// MustRS is NewRS for static configurations; it panics on error.
func MustRS(n, k int) *RS {
	c, err := NewRS(n, k)
	if err != nil {
		panic(err)
	}
	return c
}

func seqInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// Name implements Code.
func (c *RS) Name() string { return "rs" }

// DataBlocks implements Code.
func (c *RS) DataBlocks() int { return c.n }

// EncodedBlocks implements Code.
func (c *RS) EncodedBlocks() int { return c.n + c.k }

// MinNeeded implements Code: any n blocks decode (ε = 0).
func (c *RS) MinNeeded() int { return c.n }

// Encode implements Code. Blocks 0..n-1 are the data blocks verbatim
// (systematic, views of chunk); blocks n..n+k-1 are parity.
func (c *RS) Encode(chunk []byte) ([]Block, error) {
	blocks, _, err := c.EncodeInto(nil, chunk)
	return blocks, err
}

// EncodeInto implements Code: backing holds the k parity blocks,
// then the padded tail.
func (c *RS) EncodeInto(backing, chunk []byte) ([]Block, []byte, error) {
	bs := blockSize(len(chunk), c.n)
	backing = sized(backing, c.BackingLen(len(chunk)))
	parity := backing[: c.k*bs : c.k*bs]
	data := splitViews(chunk, c.n, backing[c.k*bs:])
	out := make([]Block, 0, c.n+c.k)
	for i, d := range data {
		out = append(out, Block{Index: i, Data: d})
	}
	for r := c.n; r < c.n+c.k; r++ {
		p := parity[(r-c.n)*bs : (r-c.n+1)*bs : (r-c.n+1)*bs]
		out = append(out, Block{Index: r, Data: p})
	}
	// Each parity row overwrites with its first term, then fuses the
	// rest through the single-pass multiply-accumulate: one read+write
	// of p per term, no scratch product buffer.
	for r := c.n; r < c.n+c.k; r++ {
		p := out[r].Data
		gfMulSet(p, data[0], c.enc.at(r, 0))
		for ci := 1; ci < c.n; ci++ {
			gfMulXor(p, data[ci], c.enc.at(r, ci))
		}
	}
	return out, backing, nil
}

// BackingLen implements Code: the k parity blocks and the padded tail.
func (c *RS) BackingLen(chunkLen int) int {
	return c.k*blockSize(chunkLen, c.n) + tailLen(chunkLen, c.n)
}

// Decode implements Code: gather any n distinct blocks, invert the
// corresponding encoding rows, and multiply to recover the data blocks.
func (c *RS) Decode(blocks []Block, chunkLen int) ([]byte, error) {
	return decodeFresh(c, blocks, chunkLen)
}

// DecodeInto implements Code: the data blocks held are copied to their
// places in dst, and only the missing ones are computed through the
// inverse, each straight into its own slot of dst (in scratch only
// when it is the partial tail).
func (c *RS) DecodeInto(dst []byte, blocks []Block) error {
	chunkLen := len(dst)
	if chunkLen == 0 {
		return nil
	}
	bs := blockSize(chunkLen, c.n)
	have := make(map[int][]byte, c.n)
	for _, b := range blocks {
		if b.Index < 0 || b.Index >= c.n+c.k || len(b.Data) != bs {
			continue
		}
		if _, dup := have[b.Index]; !dup {
			have[b.Index] = b.Data
		}
		if len(have) == c.n {
			break
		}
	}
	if len(have) < c.n {
		return ErrInsufficient
	}
	// Invert the rows we hold, unless they are all data rows: the
	// inverse is needed only for a data block that is missing.
	rows := make([]int, 0, c.n)
	vals := make([][]byte, 0, c.n)
	for r := 0; r < c.n+c.k && len(rows) < c.n; r++ {
		if v, ok := have[r]; ok {
			rows = append(rows, r)
			vals = append(vals, v)
		}
	}
	var inv *gfMatrix
	if rows[c.n-1] >= c.n {
		var ok bool
		if inv, ok = c.enc.subRows(rows).invert(); !ok {
			// Cannot happen for Vandermonde-derived rows; guard anyway.
			return ErrInsufficient
		}
	}
	for r := 0; r < c.n; r++ {
		if v, ok := have[r]; ok {
			placeBlock(dst, r, bs, v)
			continue
		}
		slot, spill := blockSlot(dst, r, bs)
		gfMulSet(slot, vals[0], inv.at(r, 0))
		for ci := 1; ci < c.n; ci++ {
			gfMulXor(slot, vals[ci], inv.at(r, ci))
		}
		if spill {
			placeBlock(dst, r, bs, slot)
			putBuf(slot)
		}
	}
	return nil
}

// RSSimSpec returns the simulation-level description of an RS(n, n+k)
// configuration for the availability experiments.
func RSSimSpec(n, k int) Spec {
	return Spec{Name: "rs", DataBlocks: n, TotalBlocks: n + k, MinNeeded: n}
}
