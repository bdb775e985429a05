package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"peerstripe/internal/erasure"
)

// Codec is the byte-level data path: it turns real file contents into
// named, erasure-coded blocks and back. The simulated pool moves sizes
// only; the Codec is what the live TCP nodes (internal/node), the
// examples, and the Table 2 measurements run.
//
// Multi-chunk files are encoded and decoded by a bounded worker pool;
// output ordering is deterministic regardless of scheduling.
type Codec struct {
	Code erasure.Code
	// Workers bounds how many chunks are coded concurrently. 0 selects
	// GOMAXPROCS; 1 forces the serial path. When a file has more than
	// one chunk and Workers != 1, the FetchFunc passed to DecodeFile
	// must be safe for concurrent use (every FS-backed fetch in this
	// repo is).
	Workers int

	// FetchParallel enables the degraded/hedged chunk-read path: up to
	// FetchParallel block fetches of one chunk run concurrently, the
	// first wave covers MinNeeded+FetchHedge blocks, every failure
	// immediately launches a replacement, and per-source progress
	// tracking replaces stalled streams after HedgeDelay — so a decode
	// succeeds from any sufficient subset of blocks without waiting on
	// dark nodes. 0 or 1 keeps the sequential path. The FetchFunc must
	// be safe for concurrent use.
	FetchParallel int
	// FetchHedge is how many extra blocks beyond MinNeeded the first
	// wave requests. 0 (the default) requests exactly the minimum and
	// relies on progress-hedged replacement to race laggards; raise it
	// to pre-pay for expected failures. Negative is treated as 0.
	FetchHedge int
	// HedgeDelay is the per-source stall cutoff: on every HedgeDelay
	// tick, each in-flight fetch that moved no bytes since the last
	// tick counts as a laggard and one replacement block is requested
	// per laggard — streams that are moving are left alone. 0 selects
	// DefaultHedgeDelay; negative disables the timer (failures still
	// trigger replacements).
	HedgeDelay time.Duration

	// StreamFetch, when set, is preferred over the per-call FetchFunc
	// on the parallel path: it reports incremental per-source transfer
	// progress, which is what distinguishes a slow-but-moving stream
	// from a stalled one. It must resolve names identically to the
	// FetchFunc passed alongside it and be safe for concurrent use.
	// When nil, the FetchFunc is wrapped with completion-only progress
	// (a source reports progress only when its block lands whole).
	StreamFetch StreamFetchFunc

	// Cache, when set, is consulted before every chunk decode and
	// populated after each successful one (see ChunkCache). Decodes
	// into a caller-owned buffer (DecodeFile) read from the cache but
	// do not populate it: the cache must never retain a slice whose
	// backing array the caller owns and may overwrite.
	Cache ChunkCache

	// OnHedge, when set, is called with the laggard count each time a
	// stall tick fires replacement fetches on the hedged read path —
	// the hedge-fire telemetry hook. Called from decode goroutines, so
	// it must be safe for concurrent use and cheap.
	OnHedge func(stalled int)

	// RangeFetch, when set, reads a byte range of a block without
	// moving the block — what a partial-chunk read under a systematic
	// code is made of (see DecodeChunkRange). It must resolve names
	// identically to the FetchFunc passed alongside it. When nil, ranges
	// are sliced out of whole blocks fetched with that FetchFunc.
	RangeFetch RangeFetchFunc
	// OnRangeRead, when set, is called once per data-block range a
	// partial-chunk read delivered, with its length and whether it was
	// rebuilt from the other blocks instead of read from its holder.
	// Same calling contract as OnHedge.
	OnRangeRead func(bytes int, rebuilt bool)
}

// DefaultHedgeDelay is the straggler cutoff of the hedged fetch path.
const DefaultHedgeDelay = 150 * time.Millisecond

// hedgeTick is a free-running stall ticker recycled across chunk
// decodes. A whole-file read runs one hedged decode per chunk; arming
// and disarming a runtime timer per small chunk costs more than the
// stall checks themselves, so the ticker is left running and handed
// from chunk to chunk through a pool instead. Consumers guard against
// its stale or early ticks by comparing the tick time against their own
// start (see decodeChunkParallel). Pooled tickers that fall out of use
// are reclaimed by the garbage collector (Go 1.23 collects unstopped
// tickers).
type hedgeTick struct {
	d time.Duration
	t *time.Ticker
}

var hedgeTicks sync.Pool

func getHedgeTick(d time.Duration) *hedgeTick {
	if h, ok := hedgeTicks.Get().(*hedgeTick); ok {
		if h.d != d {
			h.t.Reset(d)
			h.d = d
		}
		return h
	}
	return &hedgeTick{d: d, t: time.NewTicker(d)}
}

// CodeFor resolves the byte-level erasure code the data path runs from
// its CLI/config names: "null", "xor", "online", or "rs". schedule
// selects the online code's check schedule ("" selects the banded25x4
// default; pass "uniform" to read online-coded files stored by
// pre-banded builds — see erasure.ScheduleByName) and is rejected for
// codes that have no schedule knob. The parameter choices match what
// the live clients have always used: (2,3) XOR, a 64-block online
// code at ε=0.2, and an (8,2) Reed-Solomon stripe.
func CodeFor(code, schedule string) (erasure.Code, error) {
	switch code {
	case "null", "xor", "online", "rs":
	default:
		// Validate the code name before the schedule knob so a typo'd
		// code gets the right diagnostic even when a schedule is set.
		return nil, fmt.Errorf("core: unknown erasure code %q (want null, xor, online, rs)", code)
	}
	if schedule != "" && schedule != "uniform" && code != "online" {
		return nil, fmt.Errorf("core: code %q has no check schedule (only online does)", code)
	}
	switch code {
	case "null":
		return erasure.NewNull(), nil
	case "xor":
		return erasure.NewXOR(2)
	case "online":
		sched, err := erasure.ScheduleByName(schedule)
		if err != nil {
			return nil, err
		}
		return erasure.NewOnline(64, erasure.OnlineOpts{Eps: 0.2, Surplus: 0.2, Schedule: sched})
	default:
		return erasure.NewRS(8, 2)
	}
}

// NamedBlock pairs an encoded block with its storage name.
type NamedBlock struct {
	Name string
	Data []byte
}

// FetchFunc retrieves a named block from wherever it is stored. It
// reports false when the block is unavailable.
type FetchFunc func(name string) ([]byte, bool)

// StreamFetchFunc retrieves a named block while reporting incremental
// transfer progress: implementations call progress with the byte count
// of each segment as it lands (the live client's windowed block
// streams do), letting the hedged read path tell a moving stream from
// a stalled one mid-transfer. progress must not be called after the
// function returns.
type StreamFetchFunc func(name string, progress func(bytes int)) ([]byte, bool)

// ChunkCache lets a caller interpose a decoded-chunk cache under every
// chunk read the codec performs: DecodeChunk, DecodeRange, and
// DecodeFile all consult it before fetching blocks and populate it
// after a successful whole-chunk decode, so ranged reads, whole-file
// fetches, and the public File share one pool of decoded chunks. A
// partial-chunk read that moves block ranges (DecodeChunkRange) reads
// from the cache but never populates it. Implementations must be safe
// for concurrent use. Slices returned by GetChunk and
// handed to PutChunk are shared between the cache and its readers and
// must be treated as immutable.
type ChunkCache interface {
	// GetChunk returns the cached decoded bytes of chunk ci of the
	// file described by cat, or ok=false on a miss. Implementations
	// must key on the table's identity (e.g. CAT.Hash), not the file
	// name alone: a re-stored name gets a new CAT, and bytes decoded
	// under the old one must never satisfy reads against the new.
	GetChunk(cat *CAT, ci int) (data []byte, ok bool)
	// PutChunk offers a freshly decoded chunk to the cache; the cache
	// may drop it (e.g. when it exceeds the size bound).
	PutChunk(cat *CAT, ci int, data []byte)
}

// workers resolves the worker count for a job list.
func (cd *Codec) workers(jobs int) int {
	w := cd.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runJobs executes fn(i) for i in [0, n) over the bounded worker pool
// and returns the lowest-index error, if any. After a job fails, no
// new jobs are started (in-flight ones finish).
func (cd *Codec) runJobs(ctx context.Context, n int, fn func(i int) error) error {
	return ParallelJobsCtx(ctx, n, cd.workers(n), fn)
}

// ParallelJobs executes fn(i) for i in [0, n) over a bounded worker
// pool of the given size (0 selects GOMAXPROCS) and returns the
// lowest-index error, if any. After a job fails, no new jobs are
// started (in-flight ones finish). It is the fan-out primitive shared
// by the codec and the live client's block transfers.
func ParallelJobs(n, workers int, fn func(i int) error) error {
	return ParallelJobsCtx(context.Background(), n, workers, fn)
}

// ParallelJobsCtx is ParallelJobs bounded by ctx: once ctx is done no
// new jobs start (in-flight ones finish) and the ctx error is returned
// unless an earlier job already failed. Job functions that block on
// I/O should themselves honor ctx for prompt cancellation.
func ParallelJobsCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// EncodeFile splits data into the given chunk sizes (as decided by the
// §4.3 capacity probes), erasure-codes each chunk, and returns the
// named blocks together with the file's CAT. A zero chunk size emits an
// empty CAT row and no blocks. The blocks may alias data (see
// erasure.Code): data must stay unmodified for as long as they are in
// use. Cancelling ctx stops launching chunk jobs and returns the ctx
// error.
func (cd *Codec) EncodeFile(ctx context.Context, file string, data []byte, chunkSizes []int64) ([]NamedBlock, *CAT, error) {
	jobs, cat, err := splitChunks(file, data, chunkSizes)
	if err != nil {
		return nil, nil, err
	}
	results := make([][]erasure.Block, len(jobs))
	err = cd.runJobs(ctx, len(jobs), func(i int) error {
		ebs, err := cd.Code.Encode(jobs[i].chunk)
		if err != nil {
			return fmt.Errorf("core: encode chunk %d: %w", jobs[i].ci, err)
		}
		results[i] = ebs
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	blocks := make([]NamedBlock, 0, len(jobs)*cd.Code.EncodedBlocks())
	for i, j := range jobs {
		for _, b := range results[i] {
			blocks = append(blocks, NamedBlock{Name: BlockName(file, j.ci, b.Index), Data: b.Data})
		}
	}
	return blocks, cat, nil
}

// chunkJob is one non-empty chunk of a planned file.
type chunkJob struct {
	ci    int
	chunk []byte
}

// splitChunks validates a chunk plan against the data it covers and
// returns the non-empty chunk jobs plus the file's CAT — the planning
// arithmetic shared by EncodeFile and EncodeChunks.
func splitChunks(file string, data []byte, chunkSizes []int64) ([]chunkJob, *CAT, error) {
	cat := &CAT{File: file}
	var jobs []chunkJob
	pos := int64(0)
	for ci, sz := range chunkSizes {
		if sz < 0 {
			return nil, nil, fmt.Errorf("core: negative chunk size at %d", ci)
		}
		if sz == 0 {
			cat.Rows = append(cat.Rows, CATRow{Start: pos, End: pos})
			continue
		}
		if pos+sz > int64(len(data)) {
			return nil, nil, fmt.Errorf("core: chunk sizes exceed data length")
		}
		chunk := data[pos : pos+sz]
		cat.Rows = append(cat.Rows, CATRow{Start: pos, End: pos + sz, Sum: ChunkSum(chunk)})
		jobs = append(jobs, chunkJob{ci: ci, chunk: chunk})
		pos += sz
	}
	if pos != int64(len(data)) {
		return nil, nil, fmt.Errorf("core: chunk sizes cover %d of %d bytes", pos, len(data))
	}
	return jobs, cat, nil
}

// EncodeChunks is EncodeFile's pipelined form: chunks are encoded over
// the worker pool and handed to emit as each one finishes, so a caller
// that uploads from emit overlaps chunk-N encode with chunk-N−1 upload
// instead of materializing every block of the file before the first
// byte moves. emit may be called concurrently (bounded by Workers) and
// in any chunk order; its blocks may alias data; a failed emit stops
// the pipeline with that error. Returns the file's CAT, which is
// complete before the first emit.
func (cd *Codec) EncodeChunks(ctx context.Context, file string, data []byte, chunkSizes []int64, emit func(ci int, blocks []NamedBlock) error) (*CAT, error) {
	jobs, cat, err := splitChunks(file, data, chunkSizes)
	if err != nil {
		return nil, err
	}
	err = cd.runJobs(ctx, len(jobs), func(i int) error {
		ebs, err := cd.Code.Encode(jobs[i].chunk)
		if err != nil {
			return fmt.Errorf("core: encode chunk %d: %w", jobs[i].ci, err)
		}
		named := make([]NamedBlock, 0, len(ebs))
		for _, b := range ebs {
			named = append(named, NamedBlock{Name: BlockName(file, jobs[i].ci, b.Index), Data: b.Data})
		}
		return emit(jobs[i].ci, named)
	})
	if err != nil {
		return nil, err
	}
	return cat, nil
}

// decodeInto reconstructs a chunk from got: into dst when non-nil
// (zero-copy for DecoderInto codes, one bounded copy otherwise), into a
// fresh buffer when dst is nil. On error dst's contents are
// unspecified; callers only use it after a nil error.
func (cd *Codec) decodeInto(dst []byte, got []erasure.Block, chunkLen int64) ([]byte, error) {
	if dst == nil {
		return cd.Code.Decode(got, int(chunkLen))
	}
	dst = dst[:chunkLen]
	if di, ok := cd.Code.(erasure.DecoderInto); ok {
		if err := di.DecodeInto(dst, got); err != nil {
			return nil, err
		}
		return dst, nil
	}
	out, err := cd.Code.Decode(got, int(chunkLen))
	if err != nil {
		return nil, err
	}
	copy(dst, out)
	return dst, nil
}

// decodeChunk fetches blocks of one chunk until the code can decode it.
// When dst is non-nil the decoded chunk lands there (it must hold
// chunkLen bytes); otherwise a fresh buffer is returned. A configured
// Cache short-circuits the fetch entirely on a hit and learns the
// chunk on a fresh-buffer decode.
func (cd *Codec) decodeChunk(ctx context.Context, cat *CAT, ci int, fetch FetchFunc, dst []byte) ([]byte, error) {
	file, chunkLen := cat.File, cat.Rows[ci].Len()
	if chunkLen == 0 {
		return nil, nil
	}
	if cd.Cache != nil {
		if data, ok := cd.Cache.GetChunk(cat, ci); ok && int64(len(data)) == chunkLen {
			if dst == nil {
				return data, nil
			}
			dst = dst[:chunkLen]
			copy(dst, data)
			return dst, nil
		}
	}
	var out []byte
	var err error
	if cd.FetchParallel > 1 && cd.Code.EncodedBlocks() > 1 {
		out, err = cd.decodeChunkParallel(ctx, file, ci, chunkLen, fetch, dst)
	} else {
		out, err = cd.decodeChunkSerial(ctx, file, ci, chunkLen, fetch, dst)
	}
	if err == nil && cd.Cache != nil && dst == nil {
		cd.Cache.PutChunk(cat, ci, out)
	}
	return out, err
}

// decodeChunkSerial is the sequential fetch-until-decodable path.
func (cd *Codec) decodeChunkSerial(ctx context.Context, file string, ci int, chunkLen int64, fetch FetchFunc, dst []byte) ([]byte, error) {
	m := cd.Code.EncodedBlocks()
	need := cd.Code.MinNeeded()
	got := make([]erasure.Block, 0, m)
	for e := 0; e < m; e++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		data, ok := fetch(BlockName(file, ci, e))
		if !ok {
			continue
		}
		got = append(got, erasure.Block{Index: e, Data: data})
		if len(got) >= need {
			out, err := cd.decodeInto(dst, got, chunkLen)
			if err == nil {
				return out, nil
			}
			// Rateless decode can stall just short; keep fetching.
		}
	}
	if len(got) >= cd.Code.DataBlocks() {
		if out, err := cd.decodeInto(dst, got, chunkLen); err == nil {
			return out, nil
		}
	}
	return nil, fmt.Errorf("%w: %s chunk %d (%d/%d blocks)", ErrUnavailable, file, ci, len(got), m)
}

// decodeChunkParallel is the degraded-read path: it requests a first
// wave of MinNeeded+FetchHedge blocks concurrently, replaces every
// failure with the next untried block immediately, and tracks
// per-source progress — on each HedgeDelay tick, every in-flight
// fetch that moved no bytes since the previous tick counts as a
// laggard and one replacement launches per laggard, so a stalled
// stream is raced from another holder mid-transfer while streams that
// are moving are left alone. Decode runs as soon as any sufficient
// subset has arrived — so one dark node costs at most a hedge delay
// instead of a timeout, and reads succeed with nodes down. Cancelling
// ctx stops launching fetches and returns once the in-flight ones
// drain (promptly when the fetch itself honors ctx).
func (cd *Codec) decodeChunkParallel(ctx context.Context, file string, ci int, chunkLen int64, fetch FetchFunc, dst []byte) ([]byte, error) {
	m := cd.Code.EncodedBlocks()
	need := cd.Code.MinNeeded()
	limit := cd.FetchParallel
	if limit > m {
		limit = m
	}
	hedge := cd.FetchHedge
	if hedge < 0 {
		hedge = 0
	}
	target := need + hedge
	if target > m {
		target = m
	}
	sfetch := cd.StreamFetch
	if sfetch == nil {
		sfetch = func(name string, progress func(int)) ([]byte, bool) {
			data, ok := fetch(name)
			if ok {
				progress(len(data))
			}
			return data, ok
		}
	}

	type result struct {
		e    int
		data []byte
		ok   bool
	}
	// Buffered to m: abandoned fetches complete into the buffer and
	// are collected, never leaking a goroutine past its fetch.
	results := make(chan result, m)
	moved := make([]atomic.Int64, m) // bytes each source has moved
	seen := make([]int64, m)         // moved[] snapshot at the last tick
	inFlight := make([]bool, m)
	launched, inflight, failed := 0, 0, 0
	launch := func() {
		e := launched
		launched++
		inflight++
		inFlight[e] = true
		go func() {
			data, ok := sfetch(BlockName(file, ci, e), func(n int) {
				moved[e].Add(int64(n))
			})
			results <- result{e, data, ok}
		}()
	}

	var hedgeC <-chan time.Time
	var started time.Time
	d := cd.HedgeDelay
	if d >= 0 {
		if d == 0 {
			d = DefaultHedgeDelay
		}
		tick := getHedgeTick(d)
		defer hedgeTicks.Put(tick)
		hedgeC = tick.t.C
		started = time.Now()
	}

	got := make([]erasure.Block, 0, m)
	for {
		for launched < m && inflight < limit && launched < target+failed && ctx.Err() == nil {
			launch()
		}
		if inflight == 0 {
			break
		}
		select {
		case <-ctx.Done():
			// Abandoned fetches complete into the buffered channel, so
			// returning here leaks nothing.
			return nil, fmt.Errorf("%s chunk %d: %w", file, ci, ctx.Err())
		case r := <-results:
			inflight--
			inFlight[r.e] = false
			if !r.ok {
				failed++
				continue
			}
			got = append(got, erasure.Block{Index: r.e, Data: r.data})
			if len(got) >= need {
				if out, err := cd.decodeInto(dst, got, chunkLen); err == nil {
					return out, nil
				}
				// Rateless decode can stall just short; allow one more.
				if target < m {
					target++
				}
			}
		case now := <-hedgeC:
			if now.Sub(started) < d {
				continue // stale or early tick from the recycled ticker
			}
			stalled := 0
			for e := 0; e < m; e++ {
				if !inFlight[e] {
					continue
				}
				if p := moved[e].Load(); p > seen[e] {
					seen[e] = p
				} else {
					stalled++
				}
			}
			if stalled > 0 && cd.OnHedge != nil {
				cd.OnHedge(stalled)
			}
			if target += stalled; target > m {
				target = m
			}
		}
	}
	if len(got) >= cd.Code.DataBlocks() {
		if out, err := cd.decodeInto(dst, got, chunkLen); err == nil {
			return out, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s chunk %d: %w", file, ci, err)
	}
	return nil, fmt.Errorf("%w: %s chunk %d (%d/%d blocks)", ErrUnavailable, file, ci, len(got), m)
}

// DecodeChunk reconstructs a single chunk of the file described by cat.
// Callers that cache decoded chunks (grid.IOLib, the public File) use
// this to decode at chunk granularity instead of re-decoding per read.
func (cd *Codec) DecodeChunk(ctx context.Context, cat *CAT, ci int, fetch FetchFunc) ([]byte, error) {
	if ci < 0 || ci >= len(cat.Rows) {
		return nil, fmt.Errorf("core: chunk %d outside CAT of %d rows", ci, len(cat.Rows))
	}
	return cd.decodeChunk(ctx, cat, ci, fetch, nil)
}

// DecodeFile reconstructs the whole file described by cat. Chunks are
// decoded concurrently (see Codec.Workers), each straight into its slot
// of the output buffer — no per-chunk buffers, no reassembly pass.
func (cd *Codec) DecodeFile(ctx context.Context, cat *CAT, fetch FetchFunc) ([]byte, error) {
	var cis []int
	for ci, row := range cat.Rows {
		if !row.Empty() {
			cis = append(cis, ci)
		}
	}
	out := make([]byte, cat.FileSize())
	err := cd.runJobs(ctx, len(cis), func(i int) error {
		ci := cis[i]
		row := cat.Rows[ci]
		_, err := cd.decodeChunk(ctx, cat, ci, fetch, out[row.Start:row.End])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SliceRange assembles [off, off+length) of the file described by cat
// from per-chunk data supplied by getChunk. It is the single home of
// the whole-chunk intersection arithmetic behind grid.IOLib's cached
// read path.
func SliceRange(cat *CAT, off, length int64, getChunk func(ci int) ([]byte, error)) ([]byte, error) {
	if off < 0 || length < 0 || off+length > cat.FileSize() {
		return nil, fmt.Errorf("core: range [%d,%d) outside file of %d bytes", off, off+length, cat.FileSize())
	}
	out := make([]byte, 0, length)
	for _, ci := range cat.ChunksFor(off, length) {
		row := cat.Rows[ci]
		chunk, err := getChunk(ci)
		if err != nil {
			return nil, err
		}
		lo := int64(0)
		if off > row.Start {
			lo = off - row.Start
		}
		hi := row.Len()
		if off+length < row.End {
			hi = off + length - row.Start
		}
		out = append(out, chunk[lo:hi]...)
	}
	return out, nil
}

// PlanChunkSizes divides a file of the given size into chunks no larger
// than maxChunk, mimicking what capacity probes produce when every node
// advertises maxChunk/n. It is the planning helper used by examples and
// the live client when no pool probe is available.
func PlanChunkSizes(fileSize, maxChunk int64) []int64 {
	if fileSize <= 0 {
		return nil
	}
	if maxChunk <= 0 {
		return []int64{fileSize}
	}
	var out []int64
	for rem := fileSize; rem > 0; {
		c := maxChunk
		if c > rem {
			c = rem
		}
		out = append(out, c)
		rem -= c
	}
	return out
}
