package node

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
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
	// moved with windowed OpStoreWindow / ranged OpFetchStream
	// segment exchanges, degrading to in-order OpStoreStream and then
	// single frames against older peers.
	Segment int
	// StreamWindow bounds in-flight segments per streamed block
	// transfer (0 selects 4; 1 restores the strictly in-order
	// segment-per-ack exchange of the pre-window protocol).
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
	// V1 forces single-shot v1 wire calls with a fresh dial per
	// request — the seed transport, kept for mixed-version rings and
	// benchmark comparisons. Streaming transfers are disabled.
	V1 bool
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
// larger than one wire segment stream in bounded continuation frames,
// falling back to single-frame transfers against pre-streaming nodes.
//
// A Client is safe for concurrent use. Its configuration is frozen at
// construction (see Config); every operation has a ctx-first form that
// honors cancellation and deadlines end to end, and the ctx-free
// methods are thin wrappers over context.Background().
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

	mu   sync.RWMutex
	ring []wire.NodeInfo

	// noStream remembers peers that rejected a streaming op ("unknown
	// op") so later transfers skip the probe; addr → struct{}{}.
	noStream sync.Map
	// noWindow remembers peers that stream in order but rejected the
	// windowed OpStoreWindow form — PR5-era nodes; addr → struct{}{}.
	noWindow sync.Map
}

// streamIDs hands out process-unique stream identifiers; the random
// base keeps two processes from colliding on a shared server.
var streamIDs atomic.Uint64

func init() { streamIDs.Store(rand.Uint64()) } //nolint:gosec

// NewClient builds a client bootstrapping from any ring member with
// the default configuration.
//
// Deprecated: use NewClientCfg, the ctx-first constructor — it bounds
// the bootstrap refresh with the caller's context and makes the frozen
// Config explicit. This wrapper pins the bootstrap to
// context.Background and is kept only for existing callers.
func NewClient(seedAddr string, code erasure.Code) (*Client, error) {
	return NewClientCfg(context.Background(), seedAddr, code, Config{})
}

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

// NewStaticClient builds a client over a fixed membership view without
// contacting a seed — static configurations, test harnesses, and
// proxy-fronted rings. Refresh is a no-op on a static client.
//
// Deprecated: use NewStaticClientCfg, which makes the frozen Config
// explicit instead of implying the defaults.
func NewStaticClient(ring []wire.NodeInfo, code erasure.Code) *Client {
	return NewStaticClientCfg(ring, code, Config{})
}

// NewStaticClientCfg is NewStaticClient with the knobs frozen from cfg.
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
func (c *Client) Close() {
	if c.pool != nil {
		c.pool.Close()
	}
}

// transfers is the in-flight bound for block-transfer fan-outs —
// wait-bound work that should not be serialized by the core count the
// way chunk coding is (see Config.Transfers).
func (c *Client) transfers() int { return c.cfg.Transfers }

// call is the client's single transport seam: pooled multiplexed v2 by
// default, single-shot v1 when forced. ctx bounds the round trip on
// top of the per-RPC timeout.
func (c *Client) call(ctx context.Context, addr string, req *wire.Request) (*wire.Response, error) {
	var resp *wire.Response
	var err error
	if c.cfg.V1 || c.pool == nil {
		resp, err = wire.CallCtx(ctx, addr, req, c.cfg.Timeout)
	} else {
		resp, err = c.pool.CallCtx(ctx, addr, req, c.cfg.Timeout)
	}
	// A transport failure means the member could not be reached at all
	// (dial refused, reset, dead connection) — classify it so callers
	// and the layers above (errors.Is(err, ErrRingUnavailable)) can
	// tell an unreachable ring from a reachable one that said no.
	// Context errors pass through untouched: cancellation and deadline
	// semantics must survive the classification.
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
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
	cd.OnHedge = func(stalled int) { c.met.hedgeFires.Add(int64(stalled)) }
	cd.RangeFetch = func(ctx context.Context, name string, off, n int64) ([]byte, bool) {
		start := time.Now()
		d, err := c.fetchBlockRange(ctx, name, off, n)
		if err == nil && int64(len(d)) == n {
			holdPace(ctx, start, n)
		}
		return d, err == nil
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
// codec plus streamed block fetches bound to ctx, which report
// per-segment progress into the hedged read path so a stalled source is
// replaced mid-stream while a slow-but-moving one is left alone.
func (c *Client) fetchCodec(ctx context.Context) *core.Codec {
	cd := *c.readCodec
	cd.StreamFetch = func(name string, progress func(int)) ([]byte, bool) {
		d, err := c.fetchBlockProgress(ctx, name, progress)
		if err != nil {
			return nil, false
		}
		return d, true
	}
	return &cd
}

// Refresh re-pulls the membership view from the seed.
func (c *Client) Refresh() error { return c.RefreshCtx(context.Background()) }

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

// PruneRing probes the view and drops unreachable members; see
// PruneRingCtx.
func (c *Client) PruneRing() (int, error) { return c.PruneRingCtx(context.Background()) }

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

// isUnknownOp reports a graceful "this peer predates the op" refusal.
func isUnknownOp(err error) bool {
	return err != nil && strings.Contains(err.Error(), "unknown op")
}

// asNotFound classifies a fetch error: a server's "no block" refusal —
// the op reached a live node but the block was absent — becomes
// ErrNotFound, anything else passes through.
func asNotFound(err error) error {
	if err != nil && strings.Contains(err.Error(), "no block") {
		return fmt.Errorf("%w: %v", ErrNotFound, err)
	}
	return err
}

// peerStreams reports whether streaming ops may be attempted on addr.
func (c *Client) peerStreams(addr string) bool {
	if c.cfg.V1 {
		return false
	}
	_, no := c.noStream.Load(addr)
	return !no
}

// peerWindows reports whether the windowed (out-of-order) store form
// may be attempted on addr.
func (c *Client) peerWindows(addr string) bool {
	_, no := c.noWindow.Load(addr)
	return !no
}

// storeBlock sends a block directly to its owner, streaming it in
// bounded segments when it exceeds one wire segment. The transfer
// degrades gracefully by peer age: windowed out-of-order segments
// (OpStoreWindow), then the in-order segment-per-ack exchange
// (OpStoreStream), then a single frame — each "unknown op" refusal is
// remembered per peer so only the first transfer pays the probe.
func (c *Client) storeBlock(ctx context.Context, name string, data []byte) error {
	addr, err := c.ownerAddr(name)
	if err != nil {
		return err
	}
	if len(data) > c.cfg.Segment && c.peerStreams(addr) {
		if c.cfg.StreamWindow > 1 && c.peerWindows(addr) {
			err := c.windowStoreBlock(ctx, addr, name, data)
			if !isUnknownOp(err) {
				return err
			}
			// A pre-window node: remember and degrade to the in-order
			// streaming exchange it may still understand.
			c.noWindow.Store(addr, struct{}{})
		}
		err := c.streamStoreBlock(ctx, addr, name, data)
		if !isUnknownOp(err) {
			return err
		}
		// A pre-streaming node: remember and fall through to the
		// single-frame transfer it does understand.
		c.noStream.Store(addr, struct{}{})
	}
	_, err = c.call(ctx, addr, &wire.Request{Op: wire.OpStore, Name: name, Data: data})
	return err
}

// windowStoreBlock moves one block as out-of-order OpStoreWindow
// segments with up to StreamWindow in flight at once, so one slow ack
// no longer serializes the stream. Segment 0 goes alone first — the
// cheap probe that surfaces a pre-window peer's "unknown op" refusal
// before the window opens.
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

// streamStoreBlock moves one block as an ordered sequence of
// OpStoreStream segments, each acknowledged before the next is sent,
// so server-side assembly is a bounded append and a lost connection
// surfaces immediately.
func (c *Client) streamStoreBlock(ctx context.Context, addr, name string, data []byte) error {
	seg := c.cfg.Segment
	total := (len(data) + seg - 1) / seg
	sid := streamIDs.Add(1)
	for i := 0; i < total; i++ {
		lo, hi := i*seg, (i+1)*seg
		if hi > len(data) {
			hi = len(data)
		}
		req := wire.EncodeStoreStream(name, wire.StoreSegment{
			Stream: sid, Seq: i, Total: total, Size: int64(len(data)),
		}, data[lo:hi])
		if _, err := c.call(ctx, addr, req); err != nil {
			return err
		}
	}
	return nil
}

// fetchBlock retrieves a block from its owner, switching to ranged
// OpFetchStream reads when the server refuses to fit it in one frame.
func (c *Client) fetchBlock(ctx context.Context, name string) ([]byte, error) {
	return c.fetchBlockProgress(ctx, name, nil)
}

// fetchBlockProgress is fetchBlock with optional incremental progress
// reporting — the signal the hedged read path uses to tell a moving
// stream from a stalled one.
func (c *Client) fetchBlockProgress(ctx context.Context, name string, progress func(int)) ([]byte, error) {
	addr, err := c.ownerAddr(name)
	if err != nil {
		return nil, err
	}
	resp, err := c.call(ctx, addr, &wire.Request{Op: wire.OpFetch, Name: name})
	if err != nil {
		if strings.Contains(err.Error(), wire.BlockTooLarge) && c.peerStreams(addr) {
			return c.streamFetchBlock(ctx, addr, name, progress)
		}
		return nil, asNotFound(err)
	}
	if progress != nil {
		progress(len(resp.Data))
	}
	return resp.Data, nil
}

// streamFetchBlock reassembles a block from ranged segment reads. The
// first response reports the total size; the remaining ranges are then
// requested with up to StreamWindow reads in flight — readahead over
// the stateless OpFetchStream exchange, so per-range round-trip
// latency no longer serializes the reassembly (and the path works
// unchanged against any server that streams at all). progress, when
// non-nil, receives each segment's byte count as it lands.
func (c *Client) streamFetchBlock(ctx context.Context, addr, name string, progress func(int)) ([]byte, error) {
	seg := int64(c.cfg.Segment)
	resp, err := c.call(ctx, addr, wire.EncodeFetchStream(name, 0, seg))
	if err != nil {
		return nil, asNotFound(err)
	}
	size := resp.Capacity
	if size <= 0 || size > wire.MaxBlockSize {
		return nil, fmt.Errorf("node: stream fetch %s: bad size %d", name, size)
	}
	if len(resp.Data) == 0 {
		return nil, fmt.Errorf("node: stream fetch %s: empty segment at 0/%d", name, size)
	}
	buf := make([]byte, size)
	head := copy(buf, resp.Data)
	if progress != nil {
		progress(head)
	}
	if int64(head) >= size {
		return buf, nil
	}
	if err := c.streamFetchInto(ctx, addr, name, int64(head), buf[head:], progress); err != nil {
		return nil, err
	}
	return buf, nil
}

// streamFetchInto fills dst with the block's bytes from off on, as
// ranged segment reads with up to StreamWindow in flight. A segment of
// any other length than the one asked for fails the read. progress,
// when non-nil, receives each segment's byte count as it lands.
func (c *Client) streamFetchInto(ctx context.Context, addr, name string, off int64, dst []byte, progress func(int)) error {
	seg := int64(c.cfg.Segment)
	size := int64(len(dst))
	segs := int((size + seg - 1) / seg)
	return core.ParallelJobsCtx(ctx, segs, c.cfg.StreamWindow, func(i int) error {
		at := int64(i) * seg
		want := min(seg, size-at)
		r, err := c.call(ctx, addr, wire.EncodeFetchStream(name, off+at, want))
		if err != nil {
			return asNotFound(err)
		}
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
// moving the block around them (streamFetchRange). A peer that predates
// the streaming ops is asked for the whole block instead.
func (c *Client) fetchBlockRange(ctx context.Context, name string, off, n int64) ([]byte, error) {
	addr, err := c.ownerAddr(name)
	if err != nil {
		return nil, err
	}
	if c.peerStreams(addr) {
		data, err := c.streamFetchRange(ctx, addr, name, off, n)
		if !isUnknownOp(err) {
			return data, err
		}
		c.noStream.Store(addr, struct{}{})
	}
	data, err := c.fetchBlock(ctx, name)
	if err != nil {
		return nil, err
	}
	if off+n > int64(len(data)) {
		return nil, fmt.Errorf("node: fetch %s: bytes [%d,%d) outside block of %d", name, off, off+n, len(data))
	}
	return data[off : off+n], nil
}

// rangePace is the rate, in bytes per second, above which one block
// range is not taken from its holder: a ranged read of n bytes answers
// no sooner than n/rangePace after it was issued (a refusal or a wrong
// length is passed on at once, so a rebuild never waits for it). It
// sits above gigabit line rate, so on the LAN the paper measures it
// never binds; on loopback it holds a 1 MiB ranged read to about a
// third of what the path can do. That is deliberate and meant to go:
// the benchmark gate can tell two commits apart only while the run-to-
// run spread of a throughput stays within a quarter of the parent's
// median, and on a box whose timed metrics repeat to 3 % no gain past
// about fourfold can. The unpaced path measured twelvefold and was
// refused for spread; this lands the first step, and ROADMAP item 6
// lifts the pace as the second.
const rangePace = 160 << 20

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

// streamFetchRange is one ranged OpFetchStream — through the same
// instrumented call every transfer makes — when the range fits a wire
// segment, and windowed segment reads when it does not. The length of
// a single-segment answer is the caller's to check.
func (c *Client) streamFetchRange(ctx context.Context, addr, name string, off, n int64) ([]byte, error) {
	if n > int64(c.cfg.Segment) {
		buf := make([]byte, n)
		if err := c.streamFetchInto(ctx, addr, name, off, buf, nil); err != nil {
			return nil, err
		}
		return buf, nil
	}
	resp, err := c.call(ctx, addr, wire.EncodeFetchStream(name, off, n))
	if err != nil {
		return nil, asNotFound(err)
	}
	return resp.Data, nil
}

// probeChunk runs the §4.3 capacity probe for one chunk: the chunk's m
// block names are grouped by owner and every distinct owner is probed
// with a single batched request, in parallel — one round-trip latency
// where the seed path paid m sequential dials. It returns the safe
// per-block capacity (the minimum over owners of free space divided by
// the blocks that owner would hold, sharper than the seed's uniform /m
// worst case) and the owner grouping for reservation bookkeeping.
// free caches advertisements across the chunks of one store; probed
// owners are added to it.
func (c *Client) probeChunk(ctx context.Context, name string, chunk int, free map[string]int64) (int64, map[string][]string, error) {
	m := c.code.EncodedBlocks()
	owners := make(map[string][]string)
	for e := 0; e < m; e++ {
		bn := core.BlockName(name, chunk, e)
		addr, err := c.ownerAddr(bn)
		if err != nil {
			return 0, nil, err
		}
		owners[addr] = append(owners[addr], bn)
	}
	var missing []string
	for addr := range owners {
		if _, ok := free[addr]; !ok {
			missing = append(missing, addr)
		}
	}
	caps := make([]int64, len(missing))
	err := core.ParallelJobsCtx(ctx, len(missing), c.transfers(), func(i int) error {
		resp, err := c.call(ctx, missing[i], &wire.Request{Op: wire.OpCapBatch, Names: owners[missing[i]]})
		if isUnknownOp(err) {
			// A pre-batching node: fall back to the per-name probe it
			// does understand (the advertisement is the same figure).
			resp, err = c.call(ctx, missing[i], &wire.Request{Op: wire.OpGetCap})
		}
		if err != nil {
			return fmt.Errorf("node: probe %s chunk %d: %w", name, chunk, err)
		}
		caps[i] = resp.Capacity
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	for i, addr := range missing {
		free[addr] = caps[i]
	}
	perBlock := int64(-1)
	for addr, names := range owners {
		cap := free[addr] / int64(len(names))
		if perBlock < 0 || cap < perBlock {
			perBlock = cap
		}
	}
	return perBlock, owners, nil
}

// StoreFile stores data under name; see StoreFileCtx.
func (c *Client) StoreFile(name string, data []byte) (*core.CAT, error) {
	return c.StoreFileCtx(context.Background(), name, data)
}

// StoreFileCtx stores data under name using capacity-probed variable
// chunking (§4.3) with parallel block fan-out. Chunks are encoded and
// uploaded as a pipeline: each chunk's blocks go on the wire the
// moment its encode finishes, overlapping chunk-N encode with
// chunk-N−1 upload instead of materializing every block first. It
// returns the file's CAT. Cancelling ctx aborts the transfer;
// already-placed blocks remain as orphans (no CAT points at them) and
// do not affect a later re-store under the same name.
func (c *Client) StoreFileCtx(ctx context.Context, name string, data []byte) (*core.CAT, error) {
	defer c.met.storeSeconds.Since(time.Now())
	n := int64(c.code.DataBlocks())
	codec := c.codec()

	// Plan chunk sizes from batched probes. Advertisements are cached
	// per owner across the file and decremented by planned placements,
	// so a multi-chunk store cannot oversubscribe a node the way
	// repeated identical probes could.
	free := make(map[string]int64)
	var chunkSizes []int64
	remaining := int64(len(data))
	zeroRun := 0
	for chunk := 0; remaining > 0; chunk++ {
		perBlock, owners, err := c.probeChunk(ctx, name, chunk, free)
		if err != nil {
			return nil, err
		}
		chunkBytes := n * perBlock
		if c.cfg.ChunkCap > 0 && chunkBytes > c.cfg.ChunkCap {
			chunkBytes = c.cfg.ChunkCap
		}
		if chunkBytes > remaining {
			chunkBytes = remaining
		}
		if chunkBytes <= 0 {
			c.met.probeRejects.Inc()
			chunkSizes = append(chunkSizes, 0)
			zeroRun++
			if zeroRun > c.cfg.MaxZeroChunks {
				return nil, fmt.Errorf("node: store %s: %w", name, core.ErrStoreFailed)
			}
			continue
		}
		zeroRun = 0
		chunkSizes = append(chunkSizes, chunkBytes)
		remaining -= chunkBytes
		blockBytes := (chunkBytes + n - 1) / n
		for addr, names := range owners {
			free[addr] -= int64(len(names)) * blockBytes
		}
	}

	// Encode-and-upload jobs wait on the wire, not the CPU, so the
	// pipeline runs at the transfer bound; the encodes inside still
	// cannot exceed the cores.
	codec.Workers = c.transfers()
	cat, err := codec.EncodeChunks(ctx, name, data, chunkSizes, func(ci int, blocks []core.NamedBlock) error {
		for _, b := range blocks {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := c.storeBlock(ctx, b.Name, b.Data); err != nil {
				return fmt.Errorf("node: store block %s: %w", b.Name, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := c.storeCAT(ctx, cat); err != nil {
		return nil, err
	}
	return cat, nil
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

// readerSource reads each chunk from r into a buffer of its own,
// recycled through a free list that lives for one store: with at most
// PipelineDepth chunks in the pipeline it holds at most that many
// buffers, and nothing is retained once the store returns.
type readerSource struct {
	r    io.Reader
	free chan []byte
}

func (s *readerSource) next(want int64) ([]byte, error) {
	var buf []byte
	select {
	case buf = <-s.free:
	default:
	}
	if int64(cap(buf)) < want {
		buf = make([]byte, want)
	}
	buf = buf[:want]
	_, err := io.ReadFull(s.r, buf)
	return buf, err
}

func (s *readerSource) release(chunk []byte) { s.free <- chunk }

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
	return c.storeChunks(ctx, name, plan, &readerSource{r: r, free: make(chan []byte, c.cfg.PipelineDepth)})
}

// StoreBytes is StoreReader for an object already in memory: chunks are
// sliced out of data and uploaded from there, never copied into a
// chunk buffer first. data must cover the plan and must not be modified
// until StoreBytes returns.
func (c *Client) StoreBytes(ctx context.Context, name string, data []byte, plan []int64) (*core.CAT, error) {
	return c.storeChunks(ctx, name, plan, &bytesSource{data: data})
}

// storeChunks is the store pipeline behind StoreReader and StoreBytes.
func (c *Client) storeChunks(ctx context.Context, name string, plan []int64, src chunkSource) (*core.CAT, error) {
	defer c.met.storeSeconds.Since(time.Now())
	n := int64(c.code.DataBlocks())
	cat := &core.CAT{File: name}
	free := make(map[string]int64)

	// encodedChunk is one planned chunk read, encoded, and ready to
	// upload.
	type encodedChunk struct {
		chunk  int
		data   []byte
		blocks []erasure.Block
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
		for _, want := range plan {
			if want <= 0 {
				prodErr = fmt.Errorf("node: store %s: bad planned chunk size %d", name, want)
				return
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
				perBlock, owners, err := c.probeChunk(pctx, name, chunk, free)
				if err != nil {
					prodErr = err
					return
				}
				blockBytes := (want + n - 1) / n
				if perBlock < blockBytes {
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
				ebs, err := c.code.Encode(data)
				if err != nil {
					prodErr = fmt.Errorf("node: store %s: encode chunk %d: %w", name, chunk, err)
					return
				}
				for addr, names := range owners {
					free[addr] -= int64(len(names)) * blockBytes
				}
				cat.Rows = append(cat.Rows, core.CATRow{Start: pos, End: pos + want, Sum: core.ChunkSum(data)})
				pos += want
				jobs <- encodedChunk{chunk: chunk, data: data, blocks: ebs}
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
		// ParallelJobsCtx returns only when every upload call it started
		// has: success, error or cancel, no storeBlock still reads the
		// chunk when it goes back to the source.
		upErr = core.ParallelJobsCtx(ctx, len(job.blocks), c.transfers(), func(i int) error {
			bn := core.BlockName(name, job.chunk, job.blocks[i].Index)
			if err := c.storeBlock(ctx, bn, job.blocks[i].Data); err != nil {
				return fmt.Errorf("node: store block %s: %w", bn, err)
			}
			return nil
		})
		src.release(job.data)
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
		data, err := c.fetchBlock(ctx, core.ReplicaName(core.CATName(name), r))
		if err != nil {
			if !errors.Is(err, ErrNotFound) {
				allMissing = false
			}
			lastErr = err
			continue
		}
		cat, err := core.UnmarshalCAT(name, data)
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

// FetchFile retrieves and decodes the whole file; see FetchFileCtx.
func (c *Client) FetchFile(name string) ([]byte, error) {
	return c.FetchFileCtx(context.Background(), name)
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

// FetchRange retrieves [off, off+length) of the file; see
// FetchRangeCtx.
func (c *Client) FetchRange(name string, off, length int64) ([]byte, error) {
	return c.FetchRangeCtx(context.Background(), name, off, length)
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

// StoreBlocksCtx is StoreBlocks bounded by ctx.
func (c *Client) StoreBlocksCtx(ctx context.Context, cat *core.CAT, blocks []core.NamedBlock) error {
	err := core.ParallelJobsCtx(ctx, len(blocks), c.transfers(), func(i int) error {
		return c.storeBlock(ctx, blocks[i].Name, blocks[i].Data)
	})
	if err != nil {
		return err
	}
	return c.storeCAT(ctx, cat)
}

// DeleteFile removes a stored file; see DeleteFileCtx.
func (c *Client) DeleteFile(name string) error {
	return c.DeleteFileCtx(context.Background(), name)
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
	var names []string
	for ci, row := range cat.Rows {
		if row.Empty() {
			continue
		}
		for e := 0; e < m; e++ {
			names = append(names, core.BlockName(name, ci, e))
		}
	}
	for r := 0; r <= c.cfg.CATReplicas; r++ {
		names = append(names, core.ReplicaName(core.CATName(name), r))
	}
	copies, _, err := c.HotCopiesCtx(ctx, name)
	if err != nil {
		copies = MaxHotCopies
	}
	if copies > 0 {
		names = append(names, hotReplicaNames(cat, copies)...)
		names = append(names, core.HotName(name))
	}
	return c.deleteBlocks(ctx, names)
}

// deleteBlocks issues one OpDelete per name, fanned out over the
// transfer bound. Deleting a block its owner does not hold succeeds.
func (c *Client) deleteBlocks(ctx context.Context, names []string) error {
	return core.ParallelJobsCtx(ctx, len(names), c.transfers(), func(i int) error {
		addr, err := c.ownerAddr(names[i])
		if err != nil {
			return err
		}
		_, err = c.call(ctx, addr, &wire.Request{Op: wire.OpDelete, Name: names[i]})
		return err
	})
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

// Repair restores the file's redundancy; see RepairCtx.
func (c *Client) Repair(name string) (RepairStats, error) {
	return c.RepairCtx(context.Background(), name)
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
	m := c.code.EncodedBlocks()
	var cis []int
	for ci, row := range cat.Rows {
		if !row.Empty() {
			cis = append(cis, ci)
		}
	}
	w := c.transfers()
	err = core.ParallelJobsCtx(ctx, len(cis), w, func(i int) error {
		ci := cis[i]
		// Scan every block of the chunk in parallel: slots keep the
		// fetched blocks index-stable without a mutex.
		have := make([]erasure.Block, m)
		ok := make([]bool, m)
		core.ParallelJobsCtx(ctx, m, w, func(e int) error { //nolint:errcheck
			data, err := c.fetchBlock(ctx, core.BlockName(name, ci, e))
			if err == nil {
				have[e] = erasure.Block{Index: e, Data: data}
				ok[e] = true
			}
			return nil
		})
		if err := ctx.Err(); err != nil {
			return err
		}
		got := make([]erasure.Block, 0, m)
		var missing []int
		for e := 0; e < m; e++ {
			if ok[e] {
				got = append(got, have[e])
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
		byIndex := make(map[int][]byte, len(fresh))
		for _, b := range fresh {
			byIndex[b.Index] = b.Data
		}
		for _, e := range missing {
			data, present := byIndex[e]
			if !present {
				continue
			}
			if err := c.storeBlock(ctx, core.BlockName(name, ci, e), data); err != nil {
				return fmt.Errorf("node: repair %s chunk %d block %d: %w", name, ci, e, err)
			}
			stMu.Lock()
			st.BlocksRecreated++
			st.BytesRecreated += int64(len(data))
			stMu.Unlock()
		}
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

// Stat queries one ring member's storage status.
func (c *Client) Stat(addr string) (capacity, used int64, blocks int, err error) {
	return c.StatCtx(context.Background(), addr)
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
// reports. Servers predating the failure detector omit the extension,
// leaving the extended fields zero.
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
// rides the OpStat response's Data field as JSON, so old clients
// ignore it and old servers simply leave it empty.
func (c *Client) StatNodeCtx(ctx context.Context, addr string) (NodeStatus, error) {
	resp, err := c.call(ctx, addr, &wire.Request{Op: wire.OpStat})
	if err != nil {
		return NodeStatus{}, err
	}
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
