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
	// Workers bounds how many chunks are coded concurrently; 0 selects
	// GOMAXPROCS. When a file has more than one chunk and Workers != 1,
	// Fetch (or the FetchFunc passed to DecodeFile) must be safe for
	// concurrent use (every fetch in this repo is).
	Workers int

	// FetchParallel bounds the group fetches one chunk read has in
	// flight; 0 or 1 keeps one at a time, where a failure is still
	// replaced but a stall cannot be raced. HedgeDelay is the stall
	// cutoff (see ReadChunk): 0 selects DefaultHedgeDelay, negative
	// disables the timer (failures still trigger replacements).
	FetchParallel int
	HedgeDelay    time.Duration

	// Fetch reads the block ranges a chunk read plans, a group of them
	// from one holder at a time (see GroupFetchFunc).
	Fetch GroupFetchFunc
	// Holder, when set, names the holder of block ecb of chunk ci of
	// file as a small integer: parts with the same holder are fetched
	// together, as one group. When nil every block is a holder of its
	// own.
	Holder func(file string, ci, ecb int) int
	// GroupBytes caps the bytes one group asks for; a part larger than
	// that is a group of its own. 0 leaves groups unsplit.
	GroupBytes int64

	// OnHedge, when set, is called with the count of newly stalled
	// parts each time a stall tick raises replacements — the hedge-fire
	// telemetry hook. OnRangeRead, when set, is called once per
	// data-block range a partial-chunk read delivered, with its length
	// and whether it was rebuilt from the other blocks instead of read
	// from its holder. Both are called from read goroutines, so they
	// must be safe for concurrent use and cheap.
	OnHedge     func(stalled int)
	OnRangeRead func(bytes int, rebuilt bool)
}

// DefaultHedgeDelay is the stall cutoff of a chunk read.
const DefaultHedgeDelay = 150 * time.Millisecond

// hedgeTick is a free-running stall ticker recycled across chunk
// reads. A whole-file read runs one wave per chunk; arming and
// disarming a runtime timer per small chunk costs more than the stall
// checks themselves, so the ticker is left running and handed from
// chunk to chunk through a pool instead. Consumers guard against its
// stale or early ticks by comparing the tick time against their own
// start (see wave.run). Pooled tickers that fall out of use are
// reclaimed by the garbage collector (Go 1.23 collects unstopped
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
// its CLI/config names: "null", "xor", "online", or "rs". The
// parameter choices match what the live clients have always used:
// (2,3) XOR, a 64-block online code at ε=0.2 on the banded schedule,
// and an (8,2) Reed-Solomon stripe. The CAT records no code yet: a
// reader must be dialed with the writer's code, and these shapes are
// the stored format (pinned by TestCodeForGolden).
// schedule must be "": it remains only for existing callers, and any
// other value is an error.
func CodeFor(code, schedule string) (erasure.Code, error) {
	switch code {
	case "null", "xor", "online", "rs":
	default:
		return nil, fmt.Errorf("core: unknown erasure code %q (want null, xor, online, rs)", code)
	}
	if schedule != "" {
		return nil, fmt.Errorf("core: check schedule %q: codes take no schedule", schedule)
	}
	switch code {
	case "null":
		return erasure.NewNull(), nil
	case "xor":
		return erasure.NewXOR(2)
	case "online":
		return erasure.NewOnline(64, erasure.OnlineOpts{Eps: 0.2, Surplus: 0.2, Schedule: erasure.Banded()})
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

// Releaser gives back the buffer a fetched block is a view of. A fetch
// hook that hands out a block it does not own returns one beside it —
// the live client returns the wire response whose receive frame holds
// the bytes — and the codec calls Release once it is done with the
// bytes: after the decode or the copy, never before. A nil Releaser
// means the block is the caller's and there is nothing to give back.
type Releaser interface{ Release() }

// runJobs executes fn(i) for i in [0, n) over the Workers pool (see
// ParallelJobsCtx).
func (cd *Codec) runJobs(ctx context.Context, n int, fn func(i int) error) error {
	return ParallelJobsCtx(ctx, n, cd.Workers, fn)
}

// ParallelJobsCtx executes fn(i) for i in [0, n) over a bounded worker
// pool of the given size (0 selects GOMAXPROCS) and returns the
// lowest-index error, if any. After a job fails, or once ctx is done,
// no new jobs start (in-flight ones finish); the ctx error is returned
// unless an earlier job already failed. Job functions that block on
// I/O should themselves honor ctx for prompt cancellation. It is the
// fan-out primitive shared by the codec and the live client's block
// transfers.
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
	// The caller is one of the w workers, so a fan-out costs w-1
	// goroutines, and everything they share is one allocation.
	r := &jobRun{ctx: ctx, n: n, fn: fn, errAt: n}
	r.wg.Add(w - 1)
	for k := 1; k < w; k++ {
		go func() {
			defer r.wg.Done()
			r.work()
		}()
	}
	r.work()
	r.wg.Wait()
	if r.err != nil {
		return r.err
	}
	return ctx.Err()
}

// jobRun is the state the workers of one ParallelJobsCtx share.
type jobRun struct {
	ctx    context.Context
	n      int
	fn     func(i int) error
	next   atomic.Int64
	failed atomic.Bool
	wg     sync.WaitGroup
	mu     sync.Mutex
	err    error // the failure with the lowest index so far
	errAt  int
}

// work runs jobs in index order until none is left, one has failed or
// ctx is done.
func (r *jobRun) work() {
	for !r.failed.Load() && r.ctx.Err() == nil {
		i := int(r.next.Add(1)) - 1
		if i >= r.n {
			return
		}
		if err := r.fn(i); err != nil {
			r.mu.Lock()
			if i < r.errAt {
				r.err, r.errAt = err, i
			}
			r.mu.Unlock()
			r.failed.Store(true)
		}
	}
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
