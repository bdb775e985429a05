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
// io.Seeker, io.ReaderAt, io.WriterTo, and io.Closer over the ring.
// Reads fetch only what the requested range covers (§4.1), in one of
// three ways.
//
// Scans — every Read, a ReadAt that starts where the handle's previous
// read ended, and any piece that spans a whole chunk — decode at chunk
// granularity. Decoded chunks land in the Client's shared cache — an
// LRU bounded by WithChunkCache and keyed on (name, CAT hash, chunk),
// so every handle and every request on the client reuses them — and
// each cold chunk is fetched and decoded exactly once no matter how
// many readers race for it (per-chunk singleflight).
//
// Streams — WriteTo, which io.Copy and io.CopyBuffer call — read the
// file once from the seek position to its end. A stream of more than
// half the cache's bound (WithChunkCache) reads past the cache: a chunk
// that is cached or being fetched is read as a scan reads it, and any
// other is decoded into one buffer the call owns and reuses from chunk
// to chunk, written out, and not admitted to the cache, since a
// one-pass stream that large would mostly evict other readers' chunks.
// Such chunks still count as cache misses and decodes (CacheStats). A
// smaller stream reads as a scan does.
//
// Any other ReadAt is a random access: where it covers part of a chunk
// that is neither cached nor being fetched, and the erasure code is
// systematic (null, xor, rs — not online), it moves only the byte
// ranges of the data blocks that hold those bytes, rebuilding a range
// from the other blocks' when its holder is gone, refuses or stalls
// past the hedge delay. Those bytes go straight to the caller's buffer
// and are not admitted to the cache: caching a 16 MiB chunk to serve 1 MiB is
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
	// version under which its chunks are cached.
	ver uint64

	// posMu serializes the seek position across Read/WriteTo/Seek, held
	// for the whole Read or WriteTo so interleaved concurrent reads
	// cannot hand two callers the same range.
	posMu sync.Mutex
	pos   int64

	// next is the offset at which the handle's previous read ended, -1
	// before the first: a ReadAt that starts there continues a scan.
	next atomic.Int64

	closed atomic.Bool
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

// readable reports why the handle can serve no read, if it cannot: it
// was closed, or the context it was opened with is done.
func (f *File) readable() error {
	if f.closed.Load() {
		return f.errClosed("read")
	}
	return f.ctx.Err()
}

// chunk returns chunk ci's decoded bytes through the client's shared
// cache, keyed under this handle's CAT version: a hit costs nothing,
// a racing cold read joins the in-flight fetch, and a true miss
// fetches and erasure-decodes the coded blocks exactly once, into a
// new cache entry.
func (f *File) chunk(ci int) ([]byte, error) {
	n := f.cat.Row(ci).Len()
	return f.cl.cache.chunk(f.ctx, f.name, f.ver, ci, n, func() ([]byte, error) {
		entry := make([]byte, n)
		return entry, f.cl.c.ReadChunkCtx(f.ctx, f.cat, ci, 0, entry)
	})
}

// readPiece fills dst with bytes [lo, lo+len(dst)) of chunk ci. One
// rule separates scans from random ReadAts (see File): a piece of a scan,
// a piece that is the whole chunk, and a piece of a chunk that is
// cached or already being fetched go through the shared cache; any
// other piece under a systematic code moves block ranges and leaves
// the cache alone.
func (f *File) readPiece(dst []byte, ci int, lo int64, scan bool) error {
	if f.cl.ranged && !scan && int64(len(dst)) < f.cat.Row(ci).Len() && !f.cl.cache.known(f.name, f.ver, ci) {
		return f.cl.c.ReadChunkCtx(f.ctx, f.cat, ci, lo, dst)
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
	if err := f.readable(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("peerstripe: read %q: negative offset %d", f.name, off)
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

// WriteTo implements io.WriterTo: it writes the file from the seek
// position to its end into w — see File for what moves and what is
// cached — and advances the position by the bytes written. It returns
// that count and the first error: a failed read, w's error, or
// io.ErrShortWrite when w took fewer bytes than it was given. Like
// every read it fails promptly once the Open context is done, and with
// an error matching os.ErrClosed after Close. At end of file it writes
// nothing and returns 0, nil.
func (f *File) WriteTo(w io.Writer) (int64, error) {
	f.posMu.Lock()
	defer f.posMu.Unlock()
	if err := f.readable(); err != nil {
		return 0, err
	}
	// Only a stream that would take more than half the cache reads past
	// it, as a database's scan of a table that large reads through a
	// small ring of buffers rather than its buffer pool: a smaller file
	// streamed whole is read as Read reads it, and stays for the reads
	// that follow.
	past := 2*(f.cat.FileSize()-f.pos) > f.cl.cache.max
	var written int64
	// This call's cold-chunk buffer: taken from the client's recycler on
	// first use, and given back when the call returns, when nothing
	// views it any more (w must not keep what it is given).
	var buf []byte
	defer func() { f.cl.c.Recycle(buf) }()
	for ci, row := range f.cat.Rows {
		if row.End <= f.pos || row.Empty() {
			continue
		}
		if err := f.readable(); err != nil {
			return written, err
		}
		data, err := f.streamChunk(ci, &buf, past)
		if err != nil {
			return written, fmt.Errorf("peerstripe: read %q: %w", f.name, err)
		}
		piece := data[f.pos-row.Start:]
		n, err := w.Write(piece)
		f.pos += int64(n)
		f.next.Store(f.pos)
		written += int64(n)
		if err != nil {
			return written, err
		}
		if n < len(piece) {
			return written, io.ErrShortWrite
		}
	}
	return written, nil
}

// streamChunk returns chunk ci's bytes for WriteTo. Unless the stream
// reads past the cache, and for a chunk that is cached or being
// fetched even then, they come through the shared cache, as a
// scan's do. Any other chunk is decoded into *buf — taken once, the
// size of the largest chunk from ci on, then reused — and left out of
// the cache, though counted in its misses and decodes as a leader's
// fetch is.
func (f *File) streamChunk(ci int, buf *[]byte, past bool) ([]byte, error) {
	if !past || f.cl.cache.known(f.name, f.ver, ci) {
		return f.chunk(ci)
	}
	if *buf == nil {
		var largest int64
		for _, row := range f.cat.Rows[ci:] {
			largest = max(largest, row.Len())
		}
		*buf = f.cl.c.Buffer(largest)
	}
	dst := (*buf)[:f.cat.Row(ci).Len()]
	f.cl.cache.misses.Add(1)
	if err := f.cl.c.ReadChunkCtx(f.ctx, f.cat, ci, 0, dst); err != nil {
		return nil, err
	}
	f.cl.cache.decodes.Add(1)
	return dst, nil
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

// Close marks the handle closed: subsequent Read, ReadAt, WriteTo and
// Seek calls fail with an error matching os.ErrClosed, as does a second
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
	_ io.WriterTo       = (*File)(nil)
)
