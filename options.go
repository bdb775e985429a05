package peerstripe

import (
	"fmt"
	"time"

	"peerstripe/internal/node"
	"peerstripe/internal/wire"
)

// DefaultChunkCap bounds a streamed Store's planned chunk size when no
// WithChunkCap option is given. It is what keeps Store's memory
// footprint independent of the file size: a bounded pipeline of chunks
// plus their encoded blocks is all that is ever in flight.
const DefaultChunkCap = 16 << 20

// DefaultChunkCache bounds the client-wide decoded-chunk cache when no
// WithChunkCache option is given: 64 MiB, the same ceiling the old
// per-File 4-chunk cache reached at the default chunk cap — but now
// shared across every open File and request instead of duplicated per
// handle.
const DefaultChunkCache = 64 << 20

// Option configures a Client at Dial time. Options are the only way to
// set knobs — a dialed client is immutable, so concurrent use can
// never race a reconfiguration.
//
// The options group by concern:
//
//   - Coding: WithCode, WithWorkers, WithChunkCap
//   - Caching: WithChunkCache
//   - Transport: WithTimeout, WithSegment, WithTransfers
//   - Pipelining: WithPipelineDepth, WithStreamWindow, WithHedge,
//     WithHedgeDelay
//   - Placement/durability: WithCATReplicas
type Option func(*options) error

// options collects the resolved Dial configuration.
type options struct {
	code      string
	cfg       node.Config
	cacheSet  bool
	cacheSize int64
}

// chunkCacheBytes resolves the decoded-chunk cache bound: the
// configured size, or DefaultChunkCache when unset. 0 disables
// storage; reads still singleflight.
func (o options) chunkCacheBytes() int64 {
	if o.cacheSet {
		return o.cacheSize
	}
	return DefaultChunkCache
}

// maxChunk resolves the Store planning cap: the configured chunk cap,
// or DefaultChunkCap when unset (a streamed store must bound its
// per-chunk memory even when capacity probes would allow more).
func (o options) maxChunk() int64 {
	if o.cfg.ChunkCap > 0 {
		return o.cfg.ChunkCap
	}
	return DefaultChunkCap
}

func resolve(opts []Option) (options, error) {
	o := options{code: "xor"}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return o, err
		}
	}
	return o, nil
}

// ---- Coding: what redundancy is computed, and with how much CPU ----

// WithCode selects the per-chunk erasure code by name: "null" (no
// redundancy), "xor" ((2,3) parity, the default), "online" (a rateless
// 64-block online code), or "rs" (an (8,2) Reed-Solomon stripe).
func WithCode(name string) Option {
	return func(o *options) error {
		switch name {
		case "null", "xor", "online", "rs":
			o.code = name
			return nil
		default:
			return fmt.Errorf("peerstripe: unknown erasure code %q (want null, xor, online, rs)", name)
		}
	}
}

// WithWorkers bounds per-file chunk-coding concurrency — CPU-bound
// work. 0 (the default) selects GOMAXPROCS; 1 forces the fully
// sequential paths end to end, including one-at-a-time transfers,
// unless WithTransfers overrides that side.
func WithWorkers(n int) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("peerstripe: negative worker count %d", n)
		}
		o.cfg.Workers = n
		return nil
	}
}

// WithChunkCap caps chunk sizes in bytes. It bounds both the
// capacity-probed sizing and Store's planned chunks (and therefore
// Store's peak memory). Default DefaultChunkCap for streamed stores.
func WithChunkCap(bytes int64) Option {
	return func(o *options) error {
		if bytes <= 0 {
			return fmt.Errorf("peerstripe: chunk cap must be positive, got %d", bytes)
		}
		o.cfg.ChunkCap = bytes
		return nil
	}
}

// WithChunkCache bounds the client-wide decoded-chunk cache in bytes
// (default DefaultChunkCache). The cache is one LRU keyed on
// (name, chunk) shared by every File the client opens and by the
// ranged-read paths underneath, with per-chunk singleflight: a
// thundering herd on one cold chunk fetches and decodes it exactly
// once. 0 disables caching entirely — concurrent readers of one chunk
// still collapse into a single fetch, but nothing is retained.
// Inspect behavior with Client.CacheStats.
func WithChunkCache(bytes int64) Option {
	return func(o *options) error {
		if bytes < 0 {
			return fmt.Errorf("peerstripe: negative chunk cache bound %d", bytes)
		}
		o.cacheSet = true
		o.cacheSize = bytes
		return nil
	}
}

// ---- Transport: how bytes move on the wire ----

// WithTimeout bounds one RPC round trip (default 10s). Context
// deadlines compose with it: whichever expires first wins.
func WithTimeout(d time.Duration) Option {
	return func(o *options) error {
		if d < 0 {
			return fmt.Errorf("peerstripe: negative timeout %v", d)
		}
		o.cfg.Timeout = d
		return nil
	}
}

// WithSegment sets the wire streaming segment size in bytes (default
// wire.DefaultSegment, 4 MiB). Blocks larger than one segment go up as
// bounded streaming exchanges, and no owner group of blocks passes one
// segment. The segment must stay well under the 64 MiB frame limit.
func WithSegment(bytes int) Option {
	return func(o *options) error {
		if bytes <= 0 || bytes > wire.MaxFrame/2 {
			return fmt.Errorf("peerstripe: segment %d outside (0, %d]", bytes, wire.MaxFrame/2)
		}
		o.cfg.Segment = bytes
		return nil
	}
}

// WithTransfers bounds in-flight block transfers per operation.
// Network fan-out is wait-bound, not compute-bound, so the default is
// max(8, GOMAXPROCS) rather than the core count — a client on a small
// machine still keeps several RPCs on the wire instead of running the
// transfer loop in lockstep with the acks. 1 forces one transfer at a
// time.
func WithTransfers(n int) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("peerstripe: negative transfer bound %d", n)
		}
		o.cfg.Transfers = n
		return nil
	}
}

// ---- Pipelining: how stages overlap and laggards are raced ----

// WithPipelineDepth bounds the chunks in flight during a streamed
// Store (default 2): the next chunk is read and encoded while the
// previous one's blocks are still uploading, so CPU and wire work
// overlap instead of alternating. 1 restores the lockstep
// read-encode-upload loop. Peak Store memory grows linearly with the
// depth (about depth × chunk size plus coding overhead).
func WithPipelineDepth(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("peerstripe: pipeline depth %d below 1", n)
		}
		o.cfg.PipelineDepth = n
		return nil
	}
}

// WithStreamWindow bounds in-flight segments per streamed block
// transfer (default 4). Windowed segments ride the out-of-order
// OpStoreWindow exchange on stores and the ranged reads of a block too
// large for one frame, so one slow ack no longer serializes a stream; 1
// keeps one OpStoreWindow segment in flight, each sent after the
// previous one's ack.
func WithStreamWindow(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("peerstripe: stream window %d below 1", n)
		}
		o.cfg.StreamWindow = n
		return nil
	}
}

// WithHedge sets how many extra blocks beyond the decode minimum a
// degraded read requests up front. The default 0 requests exactly the
// minimum and relies on per-source progress hedging (WithHedgeDelay)
// to replace stalled streams; raise it to pre-pay for expected
// failures at the cost of extra fetched bytes.
func WithHedge(extra int) Option {
	return func(o *options) error {
		if extra < 0 {
			return fmt.Errorf("peerstripe: negative hedge %d", extra)
		}
		o.cfg.Hedge = extra
		return nil
	}
}

// WithHedgeDelay sets the per-source stall cutoff of the hedged read
// path (default 150ms): an in-flight block stream that moves no bytes
// for a full delay is raced against a replacement from another holder,
// while slow-but-moving streams are left alone. Negative disables the
// stall timer; failures still trigger immediate replacements.
func WithHedgeDelay(d time.Duration) Option {
	return func(o *options) error {
		o.cfg.HedgeDelay = d
		return nil
	}
}

// ---- Placement and durability ----

// WithCATReplicas sets the number of extra chunk-allocation-table
// copies kept on neighbor nodes (default 2).
func WithCATReplicas(n int) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("peerstripe: negative CAT replica count %d", n)
		}
		if n == 0 {
			n = -1 // node.Config uses -1 for "none"
		}
		o.cfg.CATReplicas = n
		return nil
	}
}
