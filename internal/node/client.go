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

// Config freezes a Client's deployment settings at construction. The
// zero value selects every default; to change a setting, build a new
// client. Everything else about the client's pipeline is fixed (see
// CATReplicas, streamWindow, pipelineDepth, maxZeroChunks and
// Client.transfers).
type Config struct {
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
	// selects wire.DefaultSegment). Blocks and block ranges move in
	// owner groups of at most one segment; a larger block goes up as
	// OpStoreWindow segments and comes back in a frame of its own, or,
	// too large for one frame, as ranged OpFetch parts of a segment
	// each.
	Segment int
}

// CATReplicas is the number of extra CAT copies a store keeps on
// neighbor nodes (§4.3): with the owner's copy, a file's table
// survives the loss of any two of its three holders.
const CATReplicas = 2

const (
	// streamWindow bounds the in-flight segments of one streamed block
	// transfer: OpStoreWindow segments on a store, ranged OpFetch parts
	// of a block too large for one frame on a read, so one slow ack does
	// not serialize a stream.
	streamWindow = 4
	// pipelineDepth bounds the chunks in flight during a streamed store:
	// chunk N is read and encoded while chunk N−1 uploads. Peak staging
	// memory grows linearly with it.
	pipelineDepth = 2
	// maxZeroChunks bounds consecutive refused chunk placements before
	// a store fails (§4.3).
	maxZeroChunks = 5
)

// withDefaults resolves the zero-value settings.
func (cfg Config) withDefaults() Config {
	if cfg.Timeout <= 0 {
		cfg.Timeout = wire.DefaultTimeout
	}
	if cfg.Segment <= 0 {
		cfg.Segment = wire.DefaultSegment
	}
	return cfg
}

// Client stores and retrieves files against a live ring, implementing
// the full §4.3 pipeline over real sockets: batched getCapacity probes,
// capacity-driven chunk sizing, erasure coding, direct block transfers,
// and CAT placement with neighbor replicas.
//
// All transfers ride a multiplexed connection pool (one persistent
// socket per peer) and fan out over a bounded worker pool; reads are
// degraded-tolerant — any sufficient subset of a chunk's blocks
// decodes it, with hedged requests racing past dark nodes. Blocks
// larger than one wire segment stream in bounded segments.
//
// A Client is safe for concurrent use. Its configuration is frozen at
// construction (see Config); every operation takes a ctx that bounds
// it end to end, except FetchBlock, a whole-block fetch for tools and
// tests.
type Client struct {
	code erasure.Code
	cfg  Config
	// transfers bounds the in-flight block transfers of one operation.
	// Network fan-out is wait-bound, not compute-bound, so it is
	// max(8, GOMAXPROCS) rather than the core count: a client on a small
	// machine still keeps several RPCs on the wire instead of running
	// the transfer loop in lockstep with the acks.
	transfers int

	// reg is the client's always-on metrics registry (see
	// Telemetry); met holds its instruments, resolved once here so
	// the data paths record with bare atomic adds.
	reg *telemetry.Registry
	met *clientMetrics

	pool *wire.Pool
	seed string

	// readCodec is the codec every read runs, built once (see
	// newReadCodec).
	readCodec *core.Codec
	// blockKeys names each block within its chunk's owner group (see
	// blockKey).
	blockKeys [][]byte

	// bufs recycles the large buffers of stores and streams from one
	// operation to the next (see Buffer).
	bufs recycler

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
		code:      code,
		cfg:       cfg.withDefaults(),
		transfers: max(8, runtime.GOMAXPROCS(0)),
		reg:       reg,
		met:       newClientMetrics(reg),
		pool:      pool,
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

// Code returns the erasure code the client runs.
func (c *Client) Code() erasure.Code { return c.code }

// Close releases the pooled connections. Calls after Close fail.
func (c *Client) Close() { c.pool.Close() }

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

// newReadCodec builds the codec every read runs: chunk reads spend
// their time waiting on block RPCs rather than on the CPU, so their
// concurrency follows the transfer bound; blocks move in owner groups
// of at most a segment (see fetchParts); and hedge fires and ranged
// reads are counted.
func (c *Client) newReadCodec() *core.Codec {
	return &core.Codec{
		Code:          c.code,
		Workers:       c.transfers,
		FetchParallel: c.transfers,
		HedgeDelay:    c.cfg.HedgeDelay,
		Fetch:         c.fetchParts,
		Holder:        c.holder,
		GroupBytes:    int64(c.cfg.Segment),
		OnHedge:       func(stalled int) { c.met.hedgeFires.Add(int64(stalled)) },
		OnRangeRead: func(bytes int, rebuilt bool) {
			c.met.rangeReads.Inc()
			c.met.rangeBytes.Add(int64(bytes))
			if rebuilt {
				c.met.rangeRebuilds.Inc()
			}
		},
	}
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
// drops the unreachable ones. On a ring of nodes run without -detect
// (no failure detector) joins propagate and departures do not, so a
// client that must place blocks after a failure (Repair) calls this to
// obtain the survivor view whose owners are the failed node's
// identifier-space neighbors (§4.4). It returns the number of members
// dropped.
func (c *Client) PruneRingCtx(ctx context.Context) (int, error) {
	ring := c.Ring()
	alive := make([]bool, len(ring))
	core.ParallelJobsCtx(ctx, len(ring), c.transfers, func(i int) error { //nolint:errcheck
		if resp, err := c.call(ctx, ring[i].Addr, &wire.Request{Op: wire.OpStat}); err == nil {
			resp.Release()
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

// ownerAddr resolves the node responsible for a name: the owner of the
// name's hash. The name is hashed from a stack copy, which costs no
// allocation.
func (c *Client) ownerAddr(name string) (string, error) {
	var nb [256]byte
	owner, err := OwnerOf(c.view(), ids.FromBytes(append(nb[:0], name...)))
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
// segments with up to streamWindow in flight at once, so one slow ack
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
	return core.ParallelJobsCtx(ctx, total-1, streamWindow, func(i int) error {
		return send(i + 1)
	})
}

// fetchBlock reads a whole block from its owner as bytes the caller
// owns, with one plain OpFetch: a block too large for one frame is
// refused (a chunk read asks for it in ranged parts; see fetchParts).
func (c *Client) fetchBlock(ctx context.Context, name string) ([]byte, error) {
	addr, err := c.ownerAddr(name)
	if err != nil {
		return nil, err
	}
	resp, err := c.call(ctx, addr, &wire.Request{Op: wire.OpFetch, Name: name})
	if err != nil {
		return nil, err
	}
	defer resp.Release()
	return bytes.Clone(resp.Data), nil
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
	err = core.ParallelJobsCtx(ctx, len(missing), c.transfers, func(i int) error {
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

// Buffer returns a buffer of n bytes for an operation of the caller's
// to use and give back with Recycle: one a finished operation of this
// client gave back, when no collection has freed it since, or a new
// one. Its contents are unspecified.
func (c *Client) Buffer(n int64) []byte { return c.bufs.get(n) }

// Recycle gives b, from Buffer, back for the client's next operation.
// The caller must hold no view of b once it does, and must recycle it
// once at most; a buffer never recycled is simply collected.
func (c *Client) Recycle(b []byte) { c.bufs.put(b) }

// readerSource reads each chunk from r into a buffer of its own, from
// the client's recycler and given back to it at release.
type readerSource struct {
	r    io.Reader
	bufs *recycler
}

func (s *readerSource) next(want int64) ([]byte, error) {
	buf := s.bufs.get(want)
	_, err := io.ReadFull(s.r, buf)
	return buf, err
}

func (s *readerSource) release(chunk []byte) { s.bufs.put(chunk) }

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
// given chunk plan (see core.PlanChunkSizes) so at most pipelineDepth
// chunks and their encoded blocks are in memory at a time — the whole
// file is never buffered. A producer stage probes, reads, and encodes
// chunks in plan order while the upload stage ships the previous
// chunk's blocks, so encode and upload overlap instead of alternating.
// Each planned chunk is capacity-probed before its
// bytes are read; a refusal becomes a zero-sized chunk and the planned
// size is retried at the next chunk number (§4.3), failing after the
// consecutive-zero-chunk limit. Blocks larger than one wire segment
// stream in bounded windowed segments.
func (c *Client) StoreReader(ctx context.Context, name string, r io.Reader, plan []int64) (*core.CAT, error) {
	return c.storeChunks(ctx, name, plan, 0, &readerSource{r: r, bufs: &c.bufs})
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
	// back to the client's recycler with the chunk.
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
	// memory at pipelineDepth. jobs has room for every token holder, so
	// handing a chunk over never blocks.
	inflight := make(chan struct{}, pipelineDepth)
	jobs := make(chan encodedChunk, pipelineDepth)
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
					if zeroRun > maxZeroChunks {
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
				ebs, coded, err := c.code.EncodeInto(c.bufs.get(int64(c.code.BackingLen(int(want)))), data)
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
		c.bufs.put(job.coded)
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
	names := catReplicaNames(cat.File, CATReplicas)
	return core.ParallelJobsCtx(ctx, len(names), c.transfers, func(r int) error {
		if err := c.storeBlock(ctx, names[r], catData); err != nil {
			return fmt.Errorf("node: store CAT replica %d: %w", r, err)
		}
		return nil
	})
}

// catReplicaNames returns the names of the file's CAT replicas 0..n.
func catReplicaNames(file string, n int) []string {
	names := make([]string, n+1)
	names[0] = core.CATName(file)
	for r := 1; r <= n; r++ {
		names[r] = core.ReplicaName(names[0], r)
	}
	return names
}

// LoadCATCtx fetches and parses the file's CAT: one OpFetch of
// replica 0, then, when that cannot be read, the other replicas in
// turn (§4.4). When every replica is reported absent by a live owner
// the error matches ErrNotFound; transport failures propagate as-is so
// callers can tell a missing file from an unreachable ring.
func (c *Client) LoadCATCtx(ctx context.Context, name string) (*core.CAT, error) {
	var lastErr error
	allMissing := true
	catName := core.CATName(name)
	for r := 0; r <= CATReplicas; r++ {
		cat, err := c.loadCATReplica(ctx, name, core.ReplicaName(catName, r))
		if err == nil {
			return cat, nil
		}
		if !errors.Is(err, ErrNotFound) {
			allMissing = false
		}
		lastErr = err
	}
	if allMissing {
		return nil, fmt.Errorf("node: no CAT replica for %q: %w", name, lastErr)
	}
	return nil, fmt.Errorf("node: load CAT for %q: %w", name, lastErr)
}

// loadCATReplica reads and parses one copy of file's CAT: one plain
// OpFetch, the whole copy in one frame.
func (c *Client) loadCATReplica(ctx context.Context, file, replica string) (*core.CAT, error) {
	addr, err := c.ownerAddr(replica)
	if err != nil {
		return nil, err
	}
	resp, err := c.call(ctx, addr, &wire.Request{Op: wire.OpFetch, Name: replica})
	if err != nil {
		return nil, err
	}
	defer resp.Release()
	return core.UnmarshalCAT(file, resp.Data) // copies what it keeps
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
	return c.readCodec.DecodeFile(ctx, cat, nil)
}

// ReadChunkCtx fills dst with bytes [lo, lo+len(dst)) of chunk ci of a
// loaded CAT, moving only what they need: under a systematic code
// (null, xor, rs) a range short of the chunk moves only the data-block
// ranges that hold it, and anything else decodes the chunk from whole
// blocks (see core.Codec.ReadChunk). Every read of a chunk — a cache
// entry's, a stream's, a random ReadAt's — is this call with its own
// dst.
func (c *Client) ReadChunkCtx(ctx context.Context, cat *core.CAT, ci int, lo int64, dst []byte) error {
	defer c.met.fetchSeconds.Since(time.Now())
	return c.readCodec.ReadChunk(ctx, cat, ci, lo, dst)
}

// FetchBlock fetches one named block whole from its owner.
func (c *Client) FetchBlock(name string) ([]byte, error) {
	return c.fetchBlock(context.Background(), name)
}

// StoreBlocksCtx places pre-encoded blocks and then the CAT with its
// replicas. The blocks go in owner groups, as a store's chunks do.
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

// DeleteFileCtx removes every encoded block of the file and its CAT
// replicas from the ring.
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
	for _, rn := range catReplicaNames(name, CATReplicas) {
		names.add(rn)
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
	w := c.transfers
	err = core.ParallelJobsCtx(ctx, len(cis), w, func(i int) error {
		ci := cis[i]
		prefix := core.BlockPrefix(name, ci)
		// Scan every block of the chunk through the read path's group
		// fetch, one exchange per owner frame in parallel: a block that
		// does not come back whole is missing.
		groups, err := c.groupByOwner(prefix, m, c.blockKey)
		if err != nil {
			return err
		}
		blockLen := (cat.Rows[ci].Len() + n - 1) / n
		frames := splitFrames(groups, c.cfg.Segment, func(wire.Part) int { return int(blockLen) })
		parts := make([]core.Part, m)
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
			group := make([]core.Part, len(f.idx))
			for k, e := range f.idx {
				group[k] = core.Part{Block: e, Len: blockLen}
			}
			rels[j], _ = c.fetchParts(ctx, name, ci, group, nil)
			for k, e := range f.idx {
				parts[e] = group[k]
			}
			return nil
		})
		if err := ctx.Err(); err != nil {
			return err
		}
		got := make([]erasure.Block, 0, m)
		var missing []int
		for e, p := range parts {
			if int64(len(p.Data)) == blockLen {
				got = append(got, erasure.Block{Index: e, Data: p.Data})
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
	for _, rn := range catReplicaNames(name, CATReplicas) {
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
	resp.Release() // the status extension in Data is not read here
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
