package core

import (
	"context"
	"fmt"
	"time"

	"peerstripe/internal/erasure"
)

// RangeFetchFunc reads n bytes at offset off of a named block from
// wherever it is stored, reporting false when they are unavailable. An
// answer of any other length than n is treated as a failure by the
// caller, never copied. It must honor ctx and be safe for concurrent
// use.
type RangeFetchFunc func(ctx context.Context, name string, off, n int64) ([]byte, bool)

// blockRange is one step of a partial-chunk read: n bytes at off of
// data block `block`, landing at dst of the caller's buffer.
type blockRange struct {
	block  int
	off, n int64
	dst    int64
}

// planBlockRanges maps bytes [lo, hi) of a chunk of chunkLen bytes,
// split into n data blocks the way the systematic codes split it (block
// i is chunk bytes [i·bs, (i+1)·bs) with bs = ⌈chunkLen/n⌉, the tail
// zero-padded), onto the data-block ranges that hold them, in order.
// The range is clipped to the chunk, so padding — the tail of the last
// block, and whole blocks when chunkLen < n — is never planned.
func planBlockRanges(chunkLen int64, n int, lo, hi int64) []blockRange {
	lo, hi = max(lo, 0), min(hi, chunkLen)
	if n < 1 || lo >= hi {
		return nil
	}
	bs := (chunkLen + int64(n) - 1) / int64(n)
	out := make([]blockRange, 0, (hi-1)/bs-lo/bs+1)
	for b := lo / bs; b*bs < hi; b++ {
		from, to := max(lo, b*bs), min(hi, (b+1)*bs)
		out = append(out, blockRange{block: int(b), off: from - b*bs, n: to - from, dst: from - lo})
	}
	return out
}

// rangeFetch resolves the ranged block reader: the configured one, or a
// slice of the whole block for callers that only have a FetchFunc (the
// in-memory stores of the tests and the simulator).
func (cd *Codec) rangeFetch(fetch FetchFunc) RangeFetchFunc {
	if cd.RangeFetch != nil {
		return cd.RangeFetch
	}
	return func(_ context.Context, name string, off, n int64) ([]byte, bool) {
		data, ok := fetch(name)
		if !ok || off+n > int64(len(data)) {
			return nil, false
		}
		return data[off : off+n], true
	}
}

// DecodeChunkRange fills dst with bytes [lo, lo+len(dst)) of chunk ci.
// A cached chunk serves it. Otherwise, when the code is systematic and
// the range is less than the chunk, only the data-block ranges that
// hold those bytes move (see readBlockRange) and nothing is admitted to
// the cache: caching 16 MiB to serve 1 MiB is what makes random small
// reads over a large file thrash it. A whole chunk, or any range under
// a code that is not systematic, takes the fetch-decode-cache path of
// DecodeChunk. Ranged bytes are as unverified as every decode is: no
// per-range sum exists to check them against.
func (cd *Codec) DecodeChunkRange(ctx context.Context, cat *CAT, ci int, lo int64, dst []byte, fetch FetchFunc) error {
	if ci < 0 || ci >= len(cat.Rows) {
		return fmt.Errorf("core: chunk %d outside CAT of %d rows", ci, len(cat.Rows))
	}
	chunkLen, hi := cat.Rows[ci].Len(), lo+int64(len(dst))
	if lo < 0 || hi > chunkLen {
		return fmt.Errorf("core: range [%d,%d) outside chunk %d of %d bytes", lo, hi, ci, chunkLen)
	}
	if len(dst) == 0 {
		return nil
	}
	sys, ok := cd.Code.(erasure.Systematic)
	if !ok || hi-lo == chunkLen {
		chunk, err := cd.decodeChunk(ctx, cat, ci, fetch, nil)
		if err != nil {
			return err
		}
		copy(dst, chunk[lo:hi])
		return nil
	}
	if cd.Cache != nil {
		if chunk, ok := cd.Cache.GetChunk(cat, ci); ok && int64(len(chunk)) == chunkLen {
			copy(dst, chunk[lo:hi])
			return nil
		}
	}
	plan := planBlockRanges(chunkLen, cd.Code.DataBlocks(), lo, hi)
	rf := cd.rangeFetch(fetch)
	return ParallelJobsCtx(ctx, len(plan), max(cd.FetchParallel, 1), func(i int) error {
		r := plan[i]
		return cd.readBlockRange(ctx, sys, cat.File, ci, r, dst[r.dst:r.dst+r.n], rf)
	})
}

// readBlockRange fills dst with one data-block range: one read from the
// block's holder, and — when the holder refuses, answers with the wrong
// length, or has not answered within HedgeDelay — the same range of
// every other block of the chunk in parallel, rebuilt as soon as
// MinNeeded of them have landed. The holder's answer and the rebuild
// race; the first complete one wins and the rest are cancelled.
func (cd *Codec) readBlockRange(ctx context.Context, sys erasure.Systematic, file string, ci int, r blockRange, dst []byte, rf RangeFetchFunc) error {
	m, need := cd.Code.EncodedBlocks(), cd.Code.MinNeeded()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		e    int
		data []byte
	}
	// Buffered to m: abandoned reads complete into the buffer, never
	// leaking a goroutine past its fetch.
	results := make(chan result, m)
	pending := 0
	read := func(e int) {
		pending++
		go func() {
			data, ok := rf(ctx, BlockName(file, ci, e), r.off, r.n)
			if !ok || int64(len(data)) != r.n {
				data = nil
			}
			results <- result{e, data}
		}()
	}
	rebuilding := false
	rebuild := func() {
		rebuilding = true
		for e := 0; e < m; e++ {
			if e != r.block {
				read(e)
			}
		}
	}

	var hedgeC <-chan time.Time
	var started time.Time
	d := cd.HedgeDelay
	if d >= 0 && m-1 >= need {
		if d == 0 {
			d = DefaultHedgeDelay
		}
		tick := getHedgeTick(d)
		defer hedgeTicks.Put(tick)
		hedgeC = tick.t.C
		started = time.Now()
	}

	read(r.block)
	got := make([]erasure.Block, 0, need)
	holderFailed, lost := false, 0
	// Once the holder has failed and fewer than need of the others can
	// still answer, waiting out a stalled one cannot help.
	for pending > 0 && !(holderFailed && m-1-lost < need) {
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s chunk %d: %w", file, ci, ctx.Err())
		case res := <-results:
			pending--
			switch {
			case res.data == nil && res.e == r.block:
				holderFailed = true
				if !rebuilding {
					rebuild()
				}
			case res.data == nil:
				lost++
			case res.e == r.block:
				copy(dst, res.data)
				cd.rangeRead(len(dst), false)
				return nil
			default:
				got = append(got, erasure.Block{Index: res.e, Data: res.data})
				if len(got) >= need && sys.RebuildRange(dst, r.block, got) == nil {
					cd.rangeRead(len(dst), true)
					return nil
				}
			}
		case now := <-hedgeC:
			if now.Sub(started) < d {
				continue // stale or early tick from the recycled ticker
			}
			if !rebuilding {
				if cd.OnHedge != nil {
					cd.OnHedge(1)
				}
				rebuild()
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%s chunk %d: %w", file, ci, err)
	}
	return fmt.Errorf("%w: %s chunk %d block %d bytes [%d,%d)", ErrUnavailable, file, ci, r.block, r.off, r.off+r.n)
}

func (cd *Codec) rangeRead(bytes int, rebuilt bool) {
	if cd.OnRangeRead != nil {
		cd.OnRangeRead(bytes, rebuilt)
	}
}

// DecodeRange reconstructs [off, off+length) of the file, fetching only
// what the range touches (§4.1: "the system does not have to retrieve
// an entire file if only a portion of the file is accessed"): whole
// chunks where it covers them, block ranges where it does not (see
// DecodeChunkRange).
func (cd *Codec) DecodeRange(ctx context.Context, cat *CAT, off, length int64, fetch FetchFunc) ([]byte, error) {
	if off < 0 || length < 0 || off+length > cat.FileSize() {
		return nil, fmt.Errorf("core: range [%d,%d) outside file of %d bytes", off, off+length, cat.FileSize())
	}
	out := make([]byte, length)
	for _, ci := range cat.ChunksFor(off, length) {
		row := cat.Rows[ci]
		from, to := max(off, row.Start), min(off+length, row.End)
		if err := cd.DecodeChunkRange(ctx, cat, ci, from-row.Start, out[from-off:to-off], fetch); err != nil {
			return nil, err
		}
	}
	return out, nil
}
