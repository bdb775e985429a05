package peerstripe

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"peerstripe/internal/core"
	"peerstripe/internal/telemetry"
)

// chunkCache is the client-wide decoded-chunk cache: a byte-bounded
// LRU shared by every File the Client opens and by the ranged-read
// paths underneath (it implements core.ChunkCache). Entries are keyed
// on (file name, CAT hash, chunk index) — the hash versions the key,
// so bytes decoded under one stored layout can never satisfy a read
// against a re-stored name: the new CAT hashes differently and the old
// entries are simply unreachable. Each key also carries a singleflight
// slot so a thundering herd on one cold chunk performs exactly one
// fetch+decode — the herd's followers wait on the leader's flight and
// share its result.
//
// Cached slices are shared between the cache and every reader and are
// never written after insertion.
type chunkCache struct {
	max int64 // byte bound; 0 disables storage (singleflight still applies)

	mu      sync.Mutex
	entries map[chunkKey]*list.Element
	lru     *list.List // of *cacheEntry, most recent at front
	size    int64
	flights map[chunkKey]*flight

	hits      atomic.Int64
	misses    atomic.Int64
	decodes   atomic.Int64
	evictions atomic.Int64
}

// chunkKey identifies one decoded chunk of one stored layout: ver is
// the CAT hash of the layout the bytes were decoded under.
type chunkKey struct {
	name string
	ver  uint64
	ci   int
}

type cacheEntry struct {
	key  chunkKey
	data []byte
}

// flight is one in-progress fetch+decode; followers block on done.
// doomed (guarded by chunkCache.mu) marks a flight overtaken by an
// invalidate: its result is still valid for the readers already
// waiting — they hold the same CAT — but must not repopulate the
// cache the invalidate just cleared.
type flight struct {
	done   chan struct{}
	data   []byte
	err    error
	doomed bool
}

func newChunkCache(max int64) *chunkCache {
	return &chunkCache{
		max:     max,
		entries: make(map[chunkKey]*list.Element),
		lru:     list.New(),
		flights: make(map[chunkKey]*flight),
	}
}

// chunk returns the decoded bytes of the keyed chunk: from the cache,
// from a flight another reader already has in progress, or by running
// fetch as the singleflight leader. want is the chunk length the
// caller's CAT records; a cached entry of any other length is dropped
// and refetched rather than served (versioned keys make that
// unreachable in practice, but a mismatch must never panic a read).
// A follower whose leader failed with a context error — the leader's
// request was cancelled, not the chunk — takes over the fetch instead
// of inheriting the failure, so one aborted HTTP request never
// poisons the herd behind it.
func (c *chunkCache) chunk(ctx context.Context, name string, ver uint64, ci int, want int64, fetch func() ([]byte, error)) ([]byte, error) {
	key := chunkKey{name, ver, ci}
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			e := el.Value.(*cacheEntry)
			if int64(len(e.data)) == want {
				c.lru.MoveToFront(el)
				data := e.data
				c.mu.Unlock()
				c.hits.Add(1)
				return data, nil
			}
			c.lru.Remove(el)
			delete(c.entries, key)
			c.size -= int64(len(e.data))
		}
		if fl, ok := c.flights[key]; ok {
			c.mu.Unlock()
			select {
			case <-fl.done:
				if fl.err == nil {
					c.hits.Add(1)
					return fl.data, nil
				}
				if isContextErr(fl.err) && ctx.Err() == nil {
					continue // leader cancelled, we are not: take over
				}
				return nil, fl.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		fl := &flight{done: make(chan struct{})}
		c.flights[key] = fl
		c.mu.Unlock()

		c.misses.Add(1)
		data, err := fetch()
		if err == nil {
			c.decodes.Add(1)
		}
		c.mu.Lock()
		delete(c.flights, key)
		if err == nil && !fl.doomed {
			c.storeLocked(key, data)
		}
		c.mu.Unlock()
		fl.data, fl.err = data, err
		close(fl.done)
		return data, err
	}
}

// known reports whether the keyed chunk is cached or being fetched — a
// chunk read through chunk() would cost no fetch of its own.
func (c *chunkCache) known(name string, ver uint64, ci int) bool {
	key := chunkKey{name, ver, ci}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, cached := c.entries[key]
	_, inFlight := c.flights[key]
	return cached || inFlight
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// storeLocked inserts (or refreshes) an entry and evicts from the LRU
// tail until the byte bound holds. Chunks larger than the whole bound
// are not cached.
func (c *chunkCache) storeLocked(key chunkKey, data []byte) {
	n := int64(len(data))
	if c.max <= 0 || n > c.max || n == 0 {
		return
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.size += n - int64(len(e.data))
		e.data = data
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, data: data})
		c.size += n
	}
	for c.size > c.max {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		e := tail.Value.(*cacheEntry)
		c.lru.Remove(tail)
		delete(c.entries, e.key)
		c.size -= int64(len(e.data))
		c.evictions.Add(1)
	}
}

// registerMetrics mirrors the cache's counters into the client's
// telemetry registry, so cache effectiveness shows up in Metrics()
// and the Prometheus exposition alongside the wire and codec metrics.
func (c *chunkCache) registerMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("ps_cache_hits_total", "Chunk reads served from the decoded-chunk cache or a joined in-flight decode.", c.hits.Load)
	reg.CounterFunc("ps_cache_misses_total", "Chunk reads that ran a fetch as the singleflight leader.", c.misses.Load)
	reg.CounterFunc("ps_cache_decodes_total", "Fetch+decode executions that succeeded.", c.decodes.Load)
	reg.CounterFunc("ps_cache_evictions_total", "Entries dropped to hold the cache byte bound.", c.evictions.Load)
	reg.GaugeFunc("ps_cache_bytes", "Decoded bytes currently held in the chunk cache.", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.size
	})
	reg.GaugeFunc("ps_cache_max_bytes", "Configured chunk-cache byte bound (0 when disabled).", func() int64 { return c.max })
}

// invalidate drops every cached chunk of the named file, across every
// CAT version, and dooms the name's in-flight fetches so a flight that
// started before the invalidate cannot repopulate the cache after it —
// called when this client re-stores or deletes the name. (Versioned
// keys already hide old entries from readers of the new layout; the
// sweep reclaims their bytes instead of waiting on LRU pressure.)
func (c *chunkCache) invalidate(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); e.key.name == name {
			c.lru.Remove(el)
			delete(c.entries, e.key)
			c.size -= int64(len(e.data))
		}
		el = next
	}
	for key, fl := range c.flights {
		if key.name == name {
			fl.doomed = true
		}
	}
}

// GetChunk implements core.ChunkCache for the decode paths underneath
// the public surface, keying on the caller's CAT hash. It is
// counter-silent: hits and misses are accounted once, at the File
// layer, not again per decode attempt.
func (c *chunkCache) GetChunk(cat *core.CAT, ci int) ([]byte, bool) {
	key := chunkKey{cat.File, cat.Hash(), ci} // hashed outside the lock
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).data, true
	}
	return nil, false
}

// PutChunk implements core.ChunkCache. A chunk with a flight in progress
// is left to the flight's leader, which admits its own result exactly
// once — or not at all when an invalidate overtook it.
func (c *chunkCache) PutChunk(cat *core.CAT, ci int, data []byte) {
	key := chunkKey{cat.File, cat.Hash(), ci}
	c.mu.Lock()
	if _, leading := c.flights[key]; !leading {
		c.storeLocked(key, data)
	}
	c.mu.Unlock()
}

// CacheStats is a point-in-time snapshot of the client's shared
// decoded-chunk cache (see WithChunkCache).
type CacheStats struct {
	// Hits counts chunk reads served without a fetch: straight from
	// the cache or by joining another reader's in-flight decode.
	Hits int64
	// Misses counts chunk reads that ran a fetch as the singleflight
	// leader.
	Misses int64
	// Decodes counts fetch+decode executions that succeeded — under a
	// thundering herd this stays at one per distinct chunk.
	Decodes int64
	// Evictions counts entries dropped to hold the byte bound.
	Evictions int64
	// Bytes is the decoded bytes currently held.
	Bytes int64
	// MaxBytes is the configured bound (0 when caching is disabled).
	MaxBytes int64
}

// CacheStats reports the client's shared decoded-chunk cache counters.
func (c *Client) CacheStats() CacheStats {
	cc := c.cache
	cc.mu.Lock()
	bytes := cc.size
	cc.mu.Unlock()
	return CacheStats{
		Hits:      cc.hits.Load(),
		Misses:    cc.misses.Load(),
		Decodes:   cc.decodes.Load(),
		Evictions: cc.evictions.Load(),
		Bytes:     bytes,
		MaxBytes:  cc.max,
	}
}
