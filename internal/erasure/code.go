// Package erasure implements the erasure codes the paper studies
// (§2.2, §6.2): the NULL code (plain copy), the (n, n+1) XOR parity
// check code of RAID-5, and Maymounkov's rateless *online code* with its
// outer/inner structure and belief-propagation peeling decoder — plus
// systematic Reed-Solomon over GF(2^8) as the *optimal* (ε = 0) code the
// paper's related-work discussion contrasts against.
//
// PeerStripe applies erasure coding at the granularity of a single chunk
// (§4.2): a chunk is divided into n equal-size blocks and encoded into
// m ≥ n blocks which are stored on distinct nodes. The original chunk is
// recoverable from any sufficient subset of the encoded blocks.
package erasure

import (
	"errors"
	"fmt"
)

// Block is one encoded block of a chunk. Index is the error-coded block
// number (ECB in the paper's filename_X_ECB naming).
type Block struct {
	Index int
	Data  []byte
}

// Code encodes chunks into blocks and decodes them back.
type Code interface {
	// Name identifies the code ("null", "xor", "online").
	Name() string
	// DataBlocks returns n, the number of blocks a chunk is split into.
	DataBlocks() int
	// EncodedBlocks returns m, the number of blocks Encode produces.
	EncodedBlocks() int
	// MinNeeded returns the number of surviving blocks that guarantees
	// Decode succeeds (for online codes: makes success overwhelmingly
	// likely; the stored surplus is chosen for a target loss tolerance).
	MinNeeded() int
	// Encode splits chunk into n blocks and returns m encoded blocks.
	// Encode never writes to chunk, but the returned blocks may alias
	// it: a systematic code's data blocks (xor, rs) are views of chunk
	// itself, not copies. The caller must therefore leave chunk
	// unmodified for as long as any returned block is in use, and must
	// treat the blocks as read-only.
	Encode(chunk []byte) ([]Block, error)
	// Decode reconstructs the chunk of length chunkLen from any
	// sufficient subset of encoded blocks.
	Decode(blocks []Block, chunkLen int) ([]byte, error)
}

// EncoderInto is implemented by codes that can encode into a
// caller-supplied backing array — the encode-side mirror of
// DecoderInto. It exists so a store that encodes chunk after chunk can
// hand each encode the coded output of one it has finished uploading
// instead of allocating it fresh per chunk.
type EncoderInto interface {
	// EncodeInto is Encode with every encoded byte that is not a view of
	// chunk — parity and check blocks, and the zero-padded tail of the
	// data blocks when the chunk does not divide evenly — placed in
	// backing. A backing without the capacity for them is replaced by a
	// new array. It returns the blocks and the backing they use: the
	// caller may pass that backing to a later EncodeInto once no block
	// of this one is in use. EncodeInto(nil, chunk) is Encode(chunk).
	EncodeInto(backing, chunk []byte) ([]Block, []byte, error)
}

// EncodeWith encodes chunk into backing when c is an EncoderInto and
// with Encode, returning a nil backing, when it is not.
func EncodeWith(c Code, backing, chunk []byte) ([]Block, []byte, error) {
	if ei, ok := c.(EncoderInto); ok {
		return ei.EncodeInto(backing, chunk)
	}
	blocks, err := c.Encode(chunk)
	return blocks, nil, err
}

// sized returns backing resliced to n bytes when it has the capacity,
// and a new array of n bytes when it does not. The contents are
// unspecified: every encoder overwrites what it takes from a backing.
func sized(backing []byte, n int) []byte {
	if cap(backing) < n {
		return make([]byte, n)
	}
	return backing[:n]
}

// ErrInsufficient is returned by Decode when the supplied blocks cannot
// reconstruct the chunk.
var ErrInsufficient = errors.New("erasure: insufficient blocks to decode")

// DecoderInto is implemented by codes that can reconstruct a chunk
// directly into a caller-supplied buffer: dst's length is the chunk
// length, and a successful decode fills it completely. It exists so a
// whole-file read can decode every chunk straight into its slot of the
// final buffer instead of allocating each chunk and copying it over —
// on failure dst's contents are unspecified and must be discarded.
type DecoderInto interface {
	DecodeInto(dst []byte, blocks []Block) error
}

// blockSize returns the per-block size for a chunk of chunkLen split
// into n blocks (the last block is zero-padded to this size).
func blockSize(chunkLen, n int) int {
	if chunkLen == 0 {
		return 0
	}
	return (chunkLen + n - 1) / n
}

// tailLen is the room splitViews needs for a chunk of chunkLen split
// into n blocks: the partial last block zero-padded to the block size,
// and any all-padding blocks after it. It is 0 when the chunk divides
// evenly.
func tailLen(chunkLen, n int) int {
	bs := blockSize(chunkLen, n)
	if bs == 0 {
		return 0
	}
	return (n - chunkLen/bs) * bs
}

// splitViews divides chunk into n blocks of equal size without copying
// it: every full block aliases chunk, and only the tail — the partial
// last block zero-padded to size, and any all-padding blocks after it —
// is copied, into tail, which holds tailLen(len(chunk), n) bytes. A
// chunk that divides evenly (the common case: the paper's 4 MB chunk
// over 4096 blocks) is not copied at all. The blocks are fixed-length
// views, never appended to; see Code.Encode for what the aliasing asks
// of callers.
func splitViews(chunk []byte, n int, tail []byte) [][]byte {
	bs := blockSize(len(chunk), n)
	full := n
	if bs > 0 {
		full = len(chunk) / bs
	}
	out := make([][]byte, n)
	for i := 0; i < full; i++ {
		out[i] = chunk[i*bs : (i+1)*bs : (i+1)*bs]
	}
	if full < n {
		tail = tail[:(n-full)*bs]
		clear(tail[copy(tail, chunk[full*bs:]):])
		for i := full; i < n; i++ {
			out[i] = tail[(i-full)*bs : (i-full+1)*bs : (i-full+1)*bs]
		}
	}
	return out
}

// join concatenates n data blocks and truncates to chunkLen.
func join(blocks [][]byte, chunkLen int) []byte {
	out := make([]byte, 0, chunkLen)
	for _, b := range blocks {
		out = append(out, b...)
	}
	if len(out) < chunkLen {
		return nil
	}
	return out[:chunkLen]
}

// joinInto copies the concatenation of the data blocks into dst,
// truncating to len(dst). It reports whether the blocks held enough
// bytes to fill dst.
func joinInto(dst []byte, blocks [][]byte) bool {
	off := 0
	for _, b := range blocks {
		if off >= len(dst) {
			break
		}
		off += copy(dst[off:], b)
	}
	return off >= len(dst)
}

// xorInto dst ^= src. Panics if lengths differ; encoded blocks of one
// chunk always share a size. Dispatches to the active kernel
// (SIMD where available, word-wise otherwise; see kernels.go).
func xorInto(dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("erasure: xor length mismatch %d vs %d", len(dst), len(src)))
	}
	hotKernels.xorInto(dst, src)
}

// xorBlocks dst ^= srcs[0] ^ srcs[1] ^ ... in a single pass over dst:
// the fused multi-source form the decoder's replay folds batch their
// member XORs through. Panics on length mismatch, like xorInto.
func xorBlocks(dst []byte, srcs [][]byte) {
	for _, s := range srcs {
		if len(s) != len(dst) {
			panic(fmt.Sprintf("erasure: xor length mismatch %d vs %d", len(dst), len(s)))
		}
	}
	hotKernels.xorBlocks(dst, srcs)
}

// xorBlocksSet dst = srcs[0] ^ srcs[1] ^ ... without ever reading dst:
// the form the encode-side builds (aux blocks, check blocks, parity)
// use, so a freshly allocated destination costs no zeroing or
// copy-first pass. Panics on length mismatch, like xorInto.
func xorBlocksSet(dst []byte, srcs [][]byte) {
	for _, s := range srcs {
		if len(s) != len(dst) {
			panic(fmt.Sprintf("erasure: xor length mismatch %d vs %d", len(dst), len(s)))
		}
	}
	hotKernels.xorBlocksSet(dst, srcs)
}

// Null is the identity code used as the measurement baseline in Table 2:
// one data block, one encoded block, no redundancy.
type Null struct{}

// NewNull returns the NULL code.
func NewNull() Null { return Null{} }

// Name implements Code.
func (Null) Name() string { return "null" }

// DataBlocks implements Code.
func (Null) DataBlocks() int { return 1 }

// EncodedBlocks implements Code.
func (Null) EncodedBlocks() int { return 1 }

// MinNeeded implements Code.
func (Null) MinNeeded() int { return 1 }

// Encode implements Code: it copies the chunk into a single block.
func (c Null) Encode(chunk []byte) ([]Block, error) {
	blocks, _, err := c.EncodeInto(nil, chunk)
	return blocks, err
}

// EncodeInto implements EncoderInto: the one block is a copy of the
// chunk in backing.
func (Null) EncodeInto(backing, chunk []byte) ([]Block, []byte, error) {
	backing = sized(backing, len(chunk))
	copy(backing, chunk)
	return []Block{{Index: 0, Data: backing}}, backing, nil
}

// Decode implements Code.
func (Null) Decode(blocks []Block, chunkLen int) ([]byte, error) {
	out := make([]byte, chunkLen)
	if err := (Null{}).DecodeInto(out, blocks); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto implements DecoderInto.
func (Null) DecodeInto(dst []byte, blocks []Block) error {
	for _, b := range blocks {
		if b.Index == 0 && len(b.Data) >= len(dst) {
			copy(dst, b.Data)
			return nil
		}
	}
	return ErrInsufficient
}

// XOR is the (n, n+1) parity check code of RAID level 5 (§2.2): n data
// blocks plus one block holding their XOR. It tolerates the loss of any
// single encoded block. The paper evaluates n = 2, the "(2,3) XOR code".
type XOR struct {
	n int
}

// NewXOR returns an XOR parity code over n data blocks (n ≥ 1).
func NewXOR(n int) (*XOR, error) {
	if n < 1 {
		return nil, fmt.Errorf("erasure: xor needs n >= 1, got %d", n)
	}
	return &XOR{n: n}, nil
}

// MustXOR is NewXOR for static configurations; it panics on bad n.
func MustXOR(n int) *XOR {
	c, err := NewXOR(n)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements Code.
func (c *XOR) Name() string { return "xor" }

// DataBlocks implements Code.
func (c *XOR) DataBlocks() int { return c.n }

// EncodedBlocks implements Code.
func (c *XOR) EncodedBlocks() int { return c.n + 1 }

// MinNeeded implements Code.
func (c *XOR) MinNeeded() int { return c.n }

// Encode implements Code. Block indices 0..n-1 are the data blocks;
// index n is the parity block.
func (c *XOR) Encode(chunk []byte) ([]Block, error) {
	blocks, _, err := c.EncodeInto(nil, chunk)
	return blocks, err
}

// EncodeInto implements EncoderInto: backing holds the parity block,
// then the padded tail.
func (c *XOR) EncodeInto(backing, chunk []byte) ([]Block, []byte, error) {
	bs := blockSize(len(chunk), c.n)
	backing = sized(backing, bs+tailLen(len(chunk), c.n))
	parity := backing[:bs:bs]
	data := splitViews(chunk, c.n, backing[bs:])
	xorBlocksSet(parity, data)
	out := make([]Block, 0, c.n+1)
	for i, d := range data {
		out = append(out, Block{Index: i, Data: d})
	}
	out = append(out, Block{Index: c.n, Data: parity})
	return out, backing, nil
}

// Decode implements Code: any n of the n+1 blocks reconstruct the chunk.
func (c *XOR) Decode(blocks []Block, chunkLen int) ([]byte, error) {
	if chunkLen == 0 {
		return []byte{}, nil
	}
	out := make([]byte, chunkLen)
	if err := c.DecodeInto(out, blocks); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto implements DecoderInto: any n of the n+1 blocks
// reconstruct the chunk straight into dst, allocating only when a
// missing data block must be rebuilt from parity.
func (c *XOR) DecodeInto(dst []byte, blocks []Block) error {
	if len(dst) == 0 {
		return nil
	}
	bs := blockSize(len(dst), c.n)
	have := make([][]byte, c.n+1)
	for _, b := range blocks {
		if b.Index < 0 || b.Index > c.n || len(b.Data) != bs {
			continue
		}
		if have[b.Index] == nil {
			have[b.Index] = b.Data
		}
	}
	missing := -1
	for i := 0; i < c.n; i++ {
		if have[i] == nil {
			if missing >= 0 {
				return ErrInsufficient // two data blocks gone
			}
			missing = i
		}
	}
	if missing >= 0 {
		if have[c.n] == nil {
			return ErrInsufficient // data block and parity both gone
		}
		rec := make([]byte, bs)
		srcs := make([][]byte, 0, c.n)
		srcs = append(srcs, have[c.n])
		for i := 0; i < c.n; i++ {
			if i != missing {
				srcs = append(srcs, have[i])
			}
		}
		xorBlocksSet(rec, srcs)
		have[missing] = rec
	}
	if !joinInto(dst, have[:c.n]) {
		return ErrInsufficient
	}
	return nil
}

// Spec is the simulation-level description of a code: how many blocks a
// chunk becomes and how many must survive for the chunk to be decodable.
// The availability and churn simulations (§6.2) only need these counts,
// not the byte-level transforms.
type Spec struct {
	Name        string
	DataBlocks  int // n
	TotalBlocks int // m stored per chunk
	MinNeeded   int // surviving blocks required to decode
}

// Tolerates returns the number of block losses per chunk the spec
// survives.
func (s Spec) Tolerates() int { return s.TotalBlocks - s.MinNeeded }

// Decodable reports whether a chunk with surviving blocks remains
// recoverable.
func (s Spec) Decodable(surviving int) bool { return surviving >= s.MinNeeded }

// Overhead returns the storage expansion factor m/n − 1 (e.g. 0.5 for
// the (2,3) XOR code).
func (s Spec) Overhead() float64 {
	return float64(s.TotalBlocks)/float64(s.DataBlocks) - 1
}

// SpecOf derives the Spec of a concrete code.
func SpecOf(c Code) Spec {
	return Spec{
		Name:        c.Name(),
		DataBlocks:  c.DataBlocks(),
		TotalBlocks: c.EncodedBlocks(),
		MinNeeded:   c.MinNeeded(),
	}
}

// Simulation specs used by §6.2's file-availability experiment.
var (
	// NullSpec: no coding; a chunk is one block.
	NullSpec = Spec{Name: "none", DataBlocks: 1, TotalBlocks: 1, MinNeeded: 1}
	// XOR23Spec: the paper's (2,3) XOR code; tolerates one loss.
	XOR23Spec = Spec{Name: "xor", DataBlocks: 2, TotalBlocks: 3, MinNeeded: 2}
	// OnlineSimSpec: "an online code that could tolerate two
	// simultaneous failures per chunk" (§6.2).
	OnlineSimSpec = Spec{Name: "online", DataBlocks: 2, TotalBlocks: 4, MinNeeded: 2}
)
