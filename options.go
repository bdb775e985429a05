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
//   - Coding: WithCode, WithChunkCap
//   - Caching: WithChunkCache
//   - Transport: WithTimeout, WithSegment
//   - Pipelining: WithHedgeDelay
//
// The rest of the client is fixed: two extra CAT copies per file, up
// to max(8, GOMAXPROCS) block transfers in flight per operation, two
// chunks in flight per streamed Store, four segments in flight per
// streamed block, and a whole-chunk read that asks for exactly the
// blocks the code needs, racing a replacement only past a stall.
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

// ---- Coding: what redundancy is computed ----

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

// ---- Pipelining: how laggards are raced ----

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
