package peerstripe

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"peerstripe/internal/core"
)

// File is an open handle on a stored file, implementing io.Reader,
// io.Seeker, io.ReaderAt, and io.Closer over the ring. Reads fetch only
// what the requested range covers (§4.1), in one of two ways.
//
// Scans — every Read, a ReadAt that starts where the handle's previous
// read ended, and any piece that spans a whole chunk — decode at chunk
// granularity. Decoded chunks land in the Client's shared cache — an
// LRU bounded by WithChunkCache and keyed on (name, chunk), so every
// handle and every request on the client reuses them — and each cold
// chunk is fetched and decoded exactly once no matter how many readers
// race for it (per-chunk singleflight).
//
// Any other ReadAt is a random access: where it covers part of a chunk
// that is neither cached nor being fetched, and the erasure code is
// systematic (null, xor, rs — not online), it moves only the byte
// ranges of the data blocks that hold those bytes, rebuilding a range
// from the other blocks' when its holder is gone, refuses or stalls
// past the hedge delay. Those bytes go straight to the caller and are
// not admitted to the cache: caching a 16 MiB chunk to serve 1 MiB is
// what makes small random reads over a file larger than the cache
// thrash it. The cost is that a hot set read only by small random
// ReadAts never warms the cache. Like every decode, ranged bytes are
// not verified against the chunk's content sum.
//
// All methods are safe for concurrent use (concurrent ReadAt, as
// io.ReaderAt requires).
//
// The context passed to Open governs every read on the File:
// cancelling it makes in-flight and future reads fail promptly with
// the context error. After Close, every read fails with an error
// matching os.ErrClosed.
type File struct {
	cl   *Client
	ctx  context.Context
	cat  *core.CAT
	name string
	// ver is the CAT hash of the layout this handle opened — the
	// version under which its chunks are cached and against which the
	// hot-promotion marker is verified.
	ver uint64

	// posMu serializes the seek position across Read/Seek, held for
	// the whole Read so interleaved concurrent Reads cannot hand two
	// callers the same range.
	posMu sync.Mutex
	pos   int64

	// next is the offset at which the handle's previous read ended, -1
	// before the first: a ReadAt that starts there continues a scan.
	next atomic.Int64

	closed atomic.Bool

	// Hot-promotion state, resolved lazily on the first chunk miss:
	// promoted files serve chunk reads from full-copy replicas (one
	// block, no decode) with the coded blocks as fallback.
	hotMu      sync.Mutex
	hotChecked bool
	hotCopies  int
	hotNext    atomic.Uint32 // rotates reads across the replica set
}

// Open loads the named file's chunk allocation table and returns a
// handle for ranged reads. The file's bytes are fetched lazily, chunk
// by chunk, as reads demand them. ctx bounds the open and every
// subsequent read on the returned File.
func (c *Client) Open(ctx context.Context, name string) (*File, error) {
	cat, err := c.c.LoadCATCtx(ctx, name)
	if err != nil {
		return nil, fmt.Errorf("peerstripe: open %q: %w", name, err)
	}
	f := &File{cl: c, ctx: ctx, cat: cat, name: name, ver: cat.Hash()}
	f.next.Store(-1)
	return f, nil
}

// Name returns the ring-wide file name.
func (f *File) Name() string { return f.name }

// Size returns the file's logical size in bytes.
func (f *File) Size() int64 { return f.cat.FileSize() }

// ETag returns an entity tag for the file as opened: the hash of its
// chunk allocation table, which covers the name, the chunk extents,
// and each chunk's content sum. Two handles agree on the tag exactly
// when they read the same stored bytes, and re-storing a name — even
// with a layout of identical extents — changes the tag, which is what
// makes it usable for HTTP conditional requests (If-None-Match,
// If-Range).
func (f *File) ETag() string {
	return fmt.Sprintf("\"%016x\"", f.ver)
}

// errClosed builds the post-Close failure for one operation.
func (f *File) errClosed(op string) error {
	return fmt.Errorf("peerstripe: %s %q: %w", op, f.name, os.ErrClosed)
}

// hotReplicas resolves (once per handle) how many full-copy chunk
// replicas the file was promoted with; 0 means read the coded path.
// The marker is trusted only when it is bound to this handle's CAT
// hash — a marker left behind by a failed demote after a re-store
// names the old layout and is ignored, so stale replica bytes are
// never routed to readers of the new one. The probe is lazy — it
// costs one marker fetch, paid only when a chunk actually misses the
// shared cache — and failures degrade to the coded path instead of
// failing the read.
func (f *File) hotReplicas() int {
	f.hotMu.Lock()
	defer f.hotMu.Unlock()
	if !f.hotChecked {
		if copies, catHash, err := f.cl.c.HotCopiesCtx(f.ctx, f.name); err == nil && catHash == f.ver {
			f.hotCopies = copies
		}
		f.hotChecked = true
	}
	return f.hotCopies
}

// fetchChunk is the singleflight leader's path for one cold chunk:
// try the promoted full-copy replicas (one block fetch, no decode,
// rotating across the replica set so a herd fans out), then fall back
// to fetching and erasure-decoding the coded blocks. Replicas are
// untrusted copies — a length or content-sum mismatch against this
// handle's CAT row degrades to the coded path instead of serving the
// bytes.
func (f *File) fetchChunk(ci int) ([]byte, error) {
	row := f.cat.Row(ci)
	if copies := f.hotReplicas(); copies > 0 {
		start := int(f.hotNext.Add(1))
		for k := 0; k < copies; k++ {
			r := 1 + (start+k)%copies
			data, err := f.cl.c.FetchChunkCopy(f.ctx, f.name, ci, r)
			if err == nil && int64(len(data)) == row.Len() &&
				(row.Sum == 0 || core.ChunkSum(data) == row.Sum) {
				return data, nil
			}
			if err := f.ctx.Err(); err != nil {
				return nil, err
			}
		}
	}
	return f.cl.c.FetchChunk(f.ctx, f.cat, ci)
}

// chunk returns chunk ci's decoded bytes through the client's shared
// cache, keyed under this handle's CAT version: a hit costs nothing,
// a racing cold read joins the in-flight fetch, and a true miss runs
// fetchChunk exactly once.
func (f *File) chunk(ci int) ([]byte, error) {
	return f.cl.cache.chunk(f.ctx, f.name, f.ver, ci, f.cat.Row(ci).Len(), func() ([]byte, error) {
		return f.fetchChunk(ci)
	})
}

// readPiece fills dst with bytes [lo, lo+len(dst)) of chunk ci. One
// rule separates the two regimes described on File: a piece of a scan,
// a piece that is the whole chunk, and a piece of a chunk that is
// cached or already being fetched go through the shared cache; any
// other piece under a systematic code moves block ranges and leaves
// the cache — and the hot-promotion marker — alone.
func (f *File) readPiece(dst []byte, ci int, lo int64, scan bool) error {
	if f.cl.ranged && !scan && int64(len(dst)) < f.cat.Row(ci).Len() && !f.cl.cache.known(f.name, f.ver, ci) {
		return f.cl.c.FetchChunkRange(f.ctx, f.cat, ci, lo, dst)
	}
	chunk, err := f.chunk(ci)
	if err != nil {
		return err
	}
	copy(dst, chunk[lo:])
	return nil
}

// ReadAt implements io.ReaderAt: it fills p from offset off, fetching
// only what [off, off+len(p)) covers — see File for what moves and
// what is cached. At end of file it returns the bytes read and io.EOF.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	return f.readAt(p, off, false)
}

// readAt is ReadAt; scan marks a read that is sequential by
// construction (Read), where ReadAt has to infer it from the offset.
func (f *File) readAt(p []byte, off int64, scan bool) (int, error) {
	if f.closed.Load() {
		return 0, f.errClosed("read")
	}
	if off < 0 {
		return 0, fmt.Errorf("peerstripe: read %q: negative offset %d", f.name, off)
	}
	if err := f.ctx.Err(); err != nil {
		return 0, err
	}
	size := f.cat.FileSize()
	if off >= size {
		return 0, io.EOF
	}
	want := int64(len(p))
	short := false
	if off+want > size {
		want = size - off
		short = true
	}
	if f.next.Swap(off+want) == off {
		scan = true
	}
	n, end := 0, off+want
	for ci, row := range f.cat.Rows { // CAT.ChunksFor without its slice: this runs per copy-buffer
		if row.End <= off || row.Empty() {
			continue
		}
		if row.Start >= end {
			break
		}
		from, to := max(off, row.Start), min(end, row.End)
		dst := p[n : n+int(to-from)]
		if err := f.readPiece(dst, ci, from-row.Start, scan); err != nil {
			return n, fmt.Errorf("peerstripe: read %q: %w", f.name, err)
		}
		n += len(dst)
	}
	if short {
		return n, io.EOF
	}
	return n, nil
}

// Read implements io.Reader at the handle's seek position. Concurrent
// Reads are safe and serialize: each consumes a distinct range.
func (f *File) Read(p []byte) (int, error) {
	f.posMu.Lock()
	defer f.posMu.Unlock()
	n, err := f.readAt(p, f.pos, true)
	f.pos += int64(n)
	return n, err
}

// Seek implements io.Seeker.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	if f.closed.Load() {
		return 0, f.errClosed("seek")
	}
	f.posMu.Lock()
	defer f.posMu.Unlock()
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		base = f.cat.FileSize()
	default:
		return 0, fmt.Errorf("peerstripe: seek %q: bad whence %d", f.name, whence)
	}
	next := base + offset
	if next < 0 {
		return 0, fmt.Errorf("peerstripe: seek %q: negative position %d", f.name, next)
	}
	f.pos = next
	return next, nil
}

// Close marks the handle closed: subsequent Read, ReadAt, and Seek
// calls fail with an error matching os.ErrClosed, as does a second
// Close. Decoded chunks stay in the Client's shared cache for other
// handles; the Client stays open.
func (f *File) Close() error {
	if f.closed.Swap(true) {
		return f.errClosed("close")
	}
	return nil
}

// Interface conformance.
var (
	_ io.ReadSeekCloser = (*File)(nil)
	_ io.ReaderAt       = (*File)(nil)
)
