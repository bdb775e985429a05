// Package peerstripe is the public, embeddable face of the PeerStripe
// contributory storage system: files striped into capacity-probed
// chunks across a ring of storage nodes, each chunk protected by
// per-chunk erasure coding, readable in ranges without touching
// unrelated chunks, and repairable after node loss (Miller, Butt &
// Butler, IPDPS'08).
//
// The package wraps the internal wire/node/core layers behind a small,
// context-first surface:
//
//	client, err := peerstripe.Dial(ctx, "10.0.0.1:7001",
//		peerstripe.WithCode("rs"), peerstripe.WithHedgeDelay(50*time.Millisecond))
//	...
//	info, err := client.Store(ctx, "dataset.bin", reader, size)
//	f, err := client.Open(ctx, "dataset.bin")        // io.ReadSeekCloser + io.ReaderAt
//	n, err := f.ReadAt(buf, 3<<30)                   // fetches only what the range covers
//
// Store streams: it plans chunk sizes up front (core.PlanChunkSizes),
// then reads, erasure-codes, and uploads one chunk at a time, so peak
// memory is a small multiple of the chunk size no matter how large the
// file is. On the wire, blocks larger than one frame segment go up as
// windowed OpStoreWindow uploads; a block too large for one frame comes
// back as ranged OpFetch parts.
//
// Every operation takes a context.Context and honors cancellation
// end to end: mid-transfer cancel aborts the RPC waits, the hedged
// fetch waves, and the coding worker pools promptly, returning
// context.Canceled (or context.DeadlineExceeded). A cancelled Store
// may leave already-placed blocks behind; they are orphans — no CAT
// references them — and do not affect a later re-store of the name.
//
// A Client's configuration is frozen at Dial time via functional
// options; there are no mutable knobs, so concurrent use is safe by
// construction. All Client and File methods are safe for concurrent
// use.
package peerstripe

import (
	"context"
	"fmt"
	"io"

	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
	"peerstripe/internal/node"
)

// Error classification; match with errors.Is.
var (
	// ErrNotFound reports that the named file (or a required block)
	// was absent from every node that should hold it.
	ErrNotFound = node.ErrNotFound
	// ErrRingUnavailable reports that the ring could not be reached at
	// all: a dead seed, dial failures, or no surviving member.
	ErrRingUnavailable = node.ErrRingUnavailable
)

// Client is a handle on a PeerStripe ring. Create one with Dial; it is
// safe for concurrent use and its configuration is immutable.
type Client struct {
	c    *node.Client
	opts options
	// cache is the client-wide decoded-chunk LRU with per-chunk
	// singleflight, shared by every File the client opens (see
	// WithChunkCache).
	cache *chunkCache
	// ranged records that the erasure code is systematic, so a File can
	// serve a partial-chunk read from block ranges (see File.ReadAt).
	ranged bool
}

// Dial connects to a ring through any member's address and returns a
// configured client. ctx bounds the bootstrap (membership pull); the
// returned client is not tied to it. Close releases the client's
// pooled connections.
func Dial(ctx context.Context, contact string, opts ...Option) (*Client, error) {
	o, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	code, err := core.CodeFor(o.code, "")
	if err != nil {
		return nil, fmt.Errorf("peerstripe: %w", err)
	}
	cache := newChunkCache(o.chunkCacheBytes())
	nc, err := node.NewClientCfg(ctx, contact, code, o.cfg)
	if err != nil {
		return nil, fmt.Errorf("peerstripe: dial %s: %w", contact, err)
	}
	cache.registerMetrics(nc.Telemetry())
	_, ranged := code.(erasure.Systematic)
	return &Client{c: nc, opts: o, cache: cache, ranged: ranged}, nil
}

// Close releases the client's pooled connections. Operations after
// Close fail.
func (c *Client) Close() error {
	c.c.Close()
	return nil
}

// FileInfo describes a stored file.
type FileInfo struct {
	// Name is the ring-wide file name.
	Name string
	// Size is the file's logical size in bytes.
	Size int64
	// Chunks is the number of chunk rows in the file's allocation
	// table, including zero-sized placement retries.
	Chunks int
}

// Store streams size bytes from r into the ring under name and returns
// the stored file's description. Chunk sizes are planned up front with
// core.PlanChunkSizes against the client's chunk cap, and the file is
// read, erasure-coded, and uploaded one chunk at a time — peak memory
// is a small multiple of the chunk size, never the file size. Each
// planned chunk is capacity-probed before its bytes are read; refusals
// become zero-sized retries exactly as in the §4.3 store procedure.
//
// Cancelling ctx aborts the transfer promptly with the ctx error.
// Already-placed blocks remain as unreferenced orphans and do not
// affect a later re-store of the same name.
func (c *Client) Store(ctx context.Context, name string, r io.Reader, size int64) (*FileInfo, error) {
	if size < 0 {
		return nil, fmt.Errorf("peerstripe: store %q: negative size %d", name, size)
	}
	cat, err := c.c.StoreReader(ctx, name, r, core.PlanChunkSizes(size, c.opts.maxChunk()))
	return c.stored(name, cat, err)
}

// StoreBytes is Store for in-memory data: chunks are coded and uploaded
// straight from data, which must not be modified until StoreBytes
// returns.
func (c *Client) StoreBytes(ctx context.Context, name string, data []byte) (*FileInfo, error) {
	cat, err := c.c.StoreBytes(ctx, name, data, core.PlanChunkSizes(int64(len(data)), c.opts.maxChunk()))
	return c.stored(name, cat, err)
}

// stored finishes a store of name that produced cat or failed with err.
func (c *Client) stored(name string, cat *core.CAT, err error) (*FileInfo, error) {
	if err != nil {
		return nil, fmt.Errorf("peerstripe: store %q: %w", name, err)
	}
	// The name's bytes just changed: cached chunks are stale, so drop
	// them.
	c.cache.invalidate(name)
	return &FileInfo{Name: name, Size: cat.FileSize(), Chunks: cat.NumChunks()}, nil
}

// Stat returns the stored file's description without fetching its
// data (only the chunk allocation table is read).
func (c *Client) Stat(ctx context.Context, name string) (*FileInfo, error) {
	cat, err := c.c.LoadCATCtx(ctx, name)
	if err != nil {
		return nil, fmt.Errorf("peerstripe: stat %q: %w", name, err)
	}
	return &FileInfo{Name: name, Size: cat.FileSize(), Chunks: cat.NumChunks()}, nil
}

// Delete removes the named file: every encoded block and every CAT
// replica.
func (c *Client) Delete(ctx context.Context, name string) error {
	c.cache.invalidate(name)
	if err := c.c.DeleteFileCtx(ctx, name); err != nil {
		return fmt.Errorf("peerstripe: delete %q: %w", name, err)
	}
	return nil
}

// RepairStats reports one Repair pass.
type RepairStats struct {
	// ChunksScanned counts non-empty chunks examined.
	ChunksScanned int
	// BlocksMissing counts encoded blocks found absent.
	BlocksMissing int
	// BlocksRecreated counts blocks re-encoded and stored.
	BlocksRecreated int
	// BytesRecreated counts the bytes of those recreated blocks.
	BytesRecreated int64
	// CATReplicasRecreated counts restored CAT copies.
	CATReplicasRecreated int
	// ChunksLost counts chunks below the code's decode threshold;
	// their redundancy cannot be restored.
	ChunksLost int
}

// Repair restores the named file's redundancy after node loss: the
// membership view is first pruned of unreachable nodes (the protocol
// propagates joins, not departures), then every chunk is scanned,
// missing blocks are re-encoded from the survivors, and absent CAT
// replicas are restored.
func (c *Client) Repair(ctx context.Context, name string) (RepairStats, error) {
	if _, err := c.c.PruneRingCtx(ctx); err != nil {
		return RepairStats{}, fmt.Errorf("peerstripe: repair %q: %w", name, err)
	}
	st, err := c.c.RepairCtx(ctx, name)
	if err != nil {
		return RepairStats(st), fmt.Errorf("peerstripe: repair %q: %w", name, err)
	}
	return RepairStats(st), nil
}

// Prune probes every member of the current view and drops the
// unreachable ones, returning how many were shed. The membership
// protocol propagates joins but not departures, so maintenance
// operations against a ring that lost nodes (Delete after a failure,
// manual inspection) call Prune first; Repair does it implicitly.
func (c *Client) Prune(ctx context.Context) (int, error) {
	dropped, err := c.c.PruneRingCtx(ctx)
	if err != nil {
		return dropped, fmt.Errorf("peerstripe: %w", err)
	}
	return dropped, nil
}

// Refresh re-pulls the membership view from the contact node.
func (c *Client) Refresh(ctx context.Context) error {
	if err := c.c.RefreshCtx(ctx); err != nil {
		return fmt.Errorf("peerstripe: %w", err)
	}
	return nil
}

// Nodes returns the addresses in the client's current membership view.
func (c *Client) Nodes() []string {
	ring := c.c.Ring()
	out := make([]string, len(ring))
	for i, n := range ring {
		out[i] = n.Addr
	}
	return out
}

// NodeStat is one ring member's storage status, including what its
// self-healing subsystems report: how many members it sees in each
// liveness state and its repair backlog. The membership and repair
// fields are zero against servers predating the failure detector.
type NodeStat struct {
	Addr     string
	Capacity int64 // contributed bytes
	Used     int64 // bytes currently held
	Blocks   int   // blocks currently held

	Alive   int // members this node sees alive (itself included)
	Suspect int // members under suspicion, still in placement
	Dead    int // committed deaths remembered by this node

	// RepairQueue counts files the node's repair daemon has queued or
	// currently in flight.
	RepairQueue int
}

// StatNode queries one ring member's storage status.
func (c *Client) StatNode(ctx context.Context, addr string) (NodeStat, error) {
	st, err := c.c.StatNodeCtx(ctx, addr)
	if err != nil {
		return NodeStat{}, fmt.Errorf("peerstripe: stat node %s: %w", addr, err)
	}
	return NodeStat{
		Addr: addr, Capacity: st.Capacity, Used: st.Used, Blocks: st.Blocks,
		Alive: st.Alive, Suspect: st.Suspect, Dead: st.Dead,
		RepairQueue: st.RepairQueue,
	}, nil
}
