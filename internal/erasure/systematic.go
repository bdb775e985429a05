package erasure

// Systematic is implemented by the codes whose first DataBlocks()
// encoded blocks are the chunk's own bytes — block i holds chunk bytes
// [i·bs, (i+1)·bs), the tail zero-padded — and whose every block is a
// bytewise function of the others at the same offset: bytes [a, b) of
// a data block can be read from its holder as they are, or rebuilt
// from bytes [a, b) of other blocks alone. That is what lets a ranged
// read move block ranges instead of the chunk around them. The online
// code mixes bytes across the whole chunk and does not implement it.
type Systematic interface {
	// RebuildRange reconstructs one byte range of data block index into
	// dst. Every entry of blocks carries, in Data, the len(dst) bytes of
	// block Block.Index at that same range. Any MinNeeded() distinct
	// blocks other than index suffice; entries that are out of range,
	// duplicated, of another length or index itself are ignored, and
	// fewer usable ones than that is ErrInsufficient. Like Decode, it
	// never writes a block's Data.
	RebuildRange(dst []byte, index int, blocks []Block) error
}

// usableRanges filters the ranges RebuildRange was handed down to the
// first need distinct ones that can stand in for block index: in
// [0, m), not index itself, len(dst) bytes long.
func usableRanges(dst []byte, index, m, need int, blocks []Block) []Block {
	seen := make([]bool, m)
	out := make([]Block, 0, need)
	for _, b := range blocks {
		if len(out) == need {
			break
		}
		if b.Index < 0 || b.Index >= m || b.Index == index || seen[b.Index] || len(b.Data) != len(dst) {
			continue
		}
		seen[b.Index] = true
		out = append(out, b)
	}
	return out
}

// RebuildRange implements Systematic: the NULL code's one block has no
// peers to rebuild it from.
func (Null) RebuildRange([]byte, int, []Block) error { return ErrInsufficient }

// RebuildRange implements Systematic: a data block is the XOR of the
// other n blocks, range by range — one fused pass.
func (c *XOR) RebuildRange(dst []byte, index int, blocks []Block) error {
	if index < 0 || index >= c.n {
		return ErrInsufficient
	}
	use := usableRanges(dst, index, c.n+1, c.n, blocks)
	if len(use) < c.n {
		return ErrInsufficient
	}
	srcs := make([][]byte, len(use))
	for i, b := range use {
		srcs[i] = b.Data
	}
	xorBlocksSet(dst, srcs)
	return nil
}

// RebuildRange implements Systematic: the inversion Decode runs on
// whole blocks, on range-sized shards, computing only the one row
// asked for.
func (c *RS) RebuildRange(dst []byte, index int, blocks []Block) error {
	if index < 0 || index >= c.n {
		return ErrInsufficient
	}
	use := usableRanges(dst, index, c.n+c.k, c.n, blocks)
	if len(use) < c.n {
		return ErrInsufficient
	}
	rows := make([]int, len(use))
	for i, b := range use {
		rows[i] = b.Index
	}
	inv, ok := c.enc.subRows(rows).invert()
	if !ok {
		// Cannot happen for Vandermonde-derived rows; guard anyway.
		return ErrInsufficient
	}
	gfMulSet(dst, use[0].Data, inv.at(index, 0))
	for i := 1; i < c.n; i++ {
		gfMulXor(dst, use[i].Data, inv.at(index, i))
	}
	return nil
}
