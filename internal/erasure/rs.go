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
	data := splitViews(chunk, c.n)
	bs := blockSize(len(chunk), c.n)
	out := make([]Block, 0, c.n+c.k)
	for i, d := range data {
		out = append(out, Block{Index: i, Data: d})
	}
	parity := make([]byte, c.k*bs)
	for r := c.n; r < c.n+c.k; r++ {
		p := parity[(r-c.n)*bs : (r-c.n+1)*bs : (r-c.n+1)*bs]
		out = append(out, Block{Index: r, Data: p})
	}
	// Row-blocked fill (same byte-strip scheme as tile.go): when
	// n+k blocks outgrow the cache budget, sweep [lo:hi) strips of
	// every row so each data strip stays resident across all k parity
	// rows instead of being re-fetched per row. Within a strip each row
	// overwrites with its first term, then fuses the rest through the
	// single-pass multiply-accumulate: one read+write of p per term, no
	// scratch product buffer. Strip order only reassociates the byte
	// ranges, so output is identical to the unblocked row loop.
	strip := stripBytesFor(c.n, c.k, bs)
	for lo := 0; lo < bs; lo += strip {
		hi := lo + strip
		if hi > bs {
			hi = bs
		}
		for r := c.n; r < c.n+c.k; r++ {
			p := out[r].Data[lo:hi:hi]
			gfMulSet(p, data[0][lo:hi], c.enc.at(r, 0))
			for ci := 1; ci < c.n; ci++ {
				gfMulXor(p, data[ci][lo:hi], c.enc.at(r, ci))
			}
		}
	}
	return out, nil
}

// Decode implements Code: gather any n distinct blocks, invert the
// corresponding encoding rows, and multiply to recover the data blocks.
func (c *RS) Decode(blocks []Block, chunkLen int) ([]byte, error) {
	if chunkLen == 0 {
		return []byte{}, nil
	}
	out := make([]byte, chunkLen)
	if err := c.DecodeInto(out, blocks); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto implements DecoderInto: the recovered data blocks land
// straight in dst instead of a freshly joined buffer.
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
	// Fast path: all data blocks present.
	allData := true
	for i := 0; i < c.n; i++ {
		if _, ok := have[i]; !ok {
			allData = false
			break
		}
	}
	if allData {
		data := make([][]byte, c.n)
		for i := 0; i < c.n; i++ {
			data[i] = have[i]
		}
		if !joinInto(dst, data) {
			return ErrInsufficient
		}
		return nil
	}
	// General path: invert the rows we hold.
	rows := make([]int, 0, c.n)
	vals := make([][]byte, 0, c.n)
	for r := 0; r < c.n+c.k && len(rows) < c.n; r++ {
		if v, ok := have[r]; ok {
			rows = append(rows, r)
			vals = append(vals, v)
		}
	}
	sub := c.enc.subRows(rows)
	inv, ok := sub.invert()
	if !ok {
		// Cannot happen for Vandermonde-derived rows; guard anyway.
		return ErrInsufficient
	}
	data := make([][]byte, c.n)
	backing := getRawBuf(c.n * bs) // overwrite-first rows need no zeroing
	for r := 0; r < c.n; r++ {
		data[r] = backing[r*bs : (r+1)*bs : (r+1)*bs]
	}
	// Row-blocked like Encode: one strip of every held block serves all
	// n recovered rows before moving on.
	strip := stripBytesFor(c.n, c.n, bs)
	for lo := 0; lo < bs; lo += strip {
		hi := lo + strip
		if hi > bs {
			hi = bs
		}
		for r := 0; r < c.n; r++ {
			d := data[r][lo:hi:hi]
			gfMulSet(d, vals[0][lo:hi], inv.at(r, 0))
			for ci := 1; ci < c.n; ci++ {
				gfMulXor(d, vals[ci][lo:hi], inv.at(r, ci))
			}
		}
	}
	joined := joinInto(dst, data)
	putBuf(backing)
	if !joined {
		return ErrInsufficient
	}
	return nil
}

// RSSimSpec returns the simulation-level description of an RS(n, n+k)
// configuration for the availability experiments.
func RSSimSpec(n, k int) Spec {
	return Spec{Name: "rs", DataBlocks: n, TotalBlocks: n + k, MinNeeded: n}
}
