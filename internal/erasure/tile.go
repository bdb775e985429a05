package erasure

import "sync"

// Cache-blocked gathers.
//
// A chunk-scale online encode is a sparse matrix-vector product over
// GF(2): m check blocks, each the XOR of ~7.6 member blocks drawn from
// the n' composite blocks. Walked check-major (the pre-PR-8 loop), the
// working set is the whole composite message plus the whole output —
// ~8.8 MB at the Table 2 shape — so every member gather misses L2 and
// the encode runs at memory speed, not kernel speed (docs/PERF.md).
//
// The blocked sweep walks the compositions in ascending source-block
// tiles via a per-tile index over the memoized member lists (tilePlan).
// All references to one tile's sources run back-to-back while those
// lines are hottest, and the ascending order preserves the hardware
// prefetcher's streaming. Every equation is split per tile; the split
// runs are mostly tile-local singletons served by the copy/xorInto
// fast path.
//
// XOR is associative and commutative, so splitting an equation across
// tiles changes nothing about the bytes produced: tiled output is
// bit-identical to the untiled gather (pinned by
// TestTiledEncodeByteIdentical and the schedule golden hashes). An
// equation's first tile overwrites its destination (xorBlocksSet);
// later tiles accumulate (xorBlocks). Equations with no members are
// cleared explicitly, exactly as the unblocked xorBlocksSet([]) did.

// encTileBlocks is the number of source blocks per tile: 512 blocks ×
// 1 KB keeps a tile's sources inside a 2 MB L2 alongside the
// destination stream. It comes from the tile sweep in docs/PERF.md
// ("Cache blocking and GFNI") on a 2 MB-L2 / 260 MB-L3 Xeon.
const encTileBlocks = 512

// tileRef names the run of one equation's (sorted) member list that
// falls inside one source tile. members aliases the plan's shared flat
// index array — the per-run member list is baked into the plan so the
// hot loop never chases back into the [][]int equation structure.
type tileRef struct {
	eq      int32
	first   bool // the equation's first run: overwrite dst, don't accumulate
	members []int32
}

// tilePlan is the per-tile index over a memoized equation structure.
// It refers to block indices only — independent of the block size — so
// one plan serves every Encode/FreshBlock call of an Online value.
type tilePlan struct {
	tiles [][]tileRef
	empty []int32 // equations with no members: dst is cleared
}

// newTilePlan indexes equations (ascending member lists over sources
// 0..nSrc-1) by tiles of tileBlocks sources; tileBlocks >= nSrc gives
// the single-tile (unblocked) plan. All member runs share one flat
// int32 backing array, sized up front so the per-run slices never
// reallocate (reallocation would break the aliasing).
func newTilePlan(members [][]int, nSrc, tileBlocks int) *tilePlan {
	nt := (nSrc + tileBlocks - 1) / tileBlocks
	total := 0
	for _, ms := range members {
		total += len(ms)
	}
	flat := make([]int32, 0, total)
	run := func(ms []int) []int32 {
		start := len(flat)
		for _, m := range ms {
			flat = append(flat, int32(m))
		}
		return flat[start:len(flat):len(flat)]
	}
	p := &tilePlan{tiles: make([][]tileRef, nt)}
	for e, ms := range members {
		if len(ms) == 0 {
			p.empty = append(p.empty, int32(e))
			continue
		}
		for lo := 0; lo < len(ms); {
			ti := ms[lo] / tileBlocks
			end := (ti + 1) * tileBlocks
			hi := lo + 1
			for hi < len(ms) && ms[hi] < end {
				hi++
			}
			p.tiles[ti] = append(p.tiles[ti], tileRef{eq: int32(e), first: lo == 0, members: run(ms[lo:hi])})
			lo = hi
		}
	}
	return p
}

// planCache builds the tilePlan for one equation structure on first
// use. Online values are documented safe for concurrent use; after the
// build, a get is a plain load.
type planCache struct {
	once sync.Once
	plan *tilePlan
}

func (pc *planCache) get(members [][]int, nSrc int) *tilePlan {
	pc.once.Do(func() { pc.plan = newTilePlan(members, nSrc, encTileBlocks) })
	return pc.plan
}

// applyTilePlan runs the blocked gather: dsts[e] = XOR of the plan's
// member sources for every equation, walked tile by tile.
func applyTilePlan(p *tilePlan, dsts, sources [][]byte) {
	for _, e := range p.empty {
		clear(dsts[e])
	}
	if len(sources[0]) == 0 {
		return
	}
	var sc [][]byte // gather scratch, reused across refs
	for _, tile := range p.tiles {
		for _, ref := range tile {
			d := dsts[ref.eq]
			ms := ref.members
			if len(ms) == 1 {
				// Split runs are often singletons; skip the batch
				// slice and its per-source dispatch loop.
				if ref.first {
					copy(d, sources[ms[0]])
				} else {
					xorInto(d, sources[ms[0]])
				}
				continue
			}
			sc = sc[:0]
			for _, ci := range ms {
				sc = append(sc, sources[ci])
			}
			if ref.first {
				xorBlocksSet(d, sc)
			} else {
				xorBlocks(d, sc)
			}
		}
	}
}
