// Package wire is the RPC layer of the live implementation (§5): one
// binary request/response protocol over TCP. Control messages (lookup,
// getCapacity, membership) ride the same connections as data transfers,
// which — as in the paper — go node-to-node directly rather than
// through overlay routing.
//
// Every connection opens with a 4-byte preamble that the server echoes
// back as a banner (see mux.go); after it, requests tagged with IDs are
// multiplexed over the persistent connection in the frame format of
// codec.go. The preamble names the dialect, so a later version can be
// negotiated; today a peer that does not answer with it is an error.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"peerstripe/internal/ids"
)

// Op enumerates the protocol operations.
type Op string

// Protocol operations.
const (
	OpJoin     Op = "join"    // register a node; response carries the ring
	OpRing     Op = "ring"    // fetch the current membership
	OpAdd      Op = "add"     // membership broadcast: a node joined
	OpCapBatch Op = "getcapb" // §4.3 capacity probe: one round trip covers every block a node owns
	OpStore    Op = "store"   // store a named block, or a group of them (direct transfer)
	OpFetch    Op = "fetch"   // fetch a named block, or a group of them
	OpDelete   Op = "delete"  // remove a named block, or a group of them
	OpStat     Op = "stat"    // node status: capacity, used, block count

	// Streaming uploads (see stream.go): a block larger than one
	// segment goes up as a sequence of bounded segments, each an
	// ordinary request/response exchange. (Reads are OpFetch groups,
	// whose parts carry byte ranges.)
	OpStoreWindow Op = "storewin" // one windowed upload segment, any order

	// Failure detection and membership gossip (see gossip.go). The
	// payloads ride Request.Data / Response.Data as an opaque byte
	// encoding, versioned apart from the frame format.
	OpPing    Op = "ping"    // direct liveness probe, gossip piggybacked
	OpPingReq Op = "pingreq" // ask a peer to probe a target on our behalf
	OpGossip  Op = "gossip"  // membership delta push (join/suspect/dead/refute)
)

// Ops lists every protocol operation; the protocol golden test iterates
// it so a new op cannot ship without a round trip through Pool and Serve.
var Ops = []Op{OpJoin, OpRing, OpAdd, OpCapBatch, OpStore, OpFetch, OpDelete, OpStat, OpStoreWindow, OpPing, OpPingReq, OpGossip}

// NodeInfo identifies one ring member.
type NodeInfo struct {
	ID   ids.ID
	Addr string
}

// Part is one block of a group exchange. A request whose Parts is not
// empty names a group: block i is Name+Parts[i].Key, so the blocks of
// one chunk share their prefix in Name and each carries only its index.
// An OpStore group carries each block's bytes in Data; an OpFetch part
// asks for bytes [Off, Off+Len) of its block, and the response answers
// part for part in request order with the bytes of that range the block
// holds, or Absent; OpDelete and OpCapBatch groups carry keys only. A
// request with no Parts is the whole block named Name, with its bytes
// in Request.Data and the answer in Response.Data.
//
// On the wire a group is a table of per-block lengths before one
// payload, the blocks back to back: the sender writes each block from
// its own memory, and a received part's Key and Data are views into the
// frame, valid until Release.
type Part struct {
	Key      []byte
	Off, Len int64 // fetch request: the byte range asked for
	Data     []byte
	Absent   bool // fetch response: the holder has no block by this name

	hold *frameBuf // the frame an answer's Data views, pinned until sent (see Hold)
}

// Request is the client-to-server message.
//
// A request read off a connection does not own Data or its Parts' Key
// and Data: they are views into the pooled frame the request arrived
// in, valid until Release (see Handler for when the server releases
// it).
type Request struct {
	// ID matches a response to its request on a multiplexed
	// connection.
	ID   uint64
	Op   Op
	Name string
	// Names carries the control fields of a streaming segment (see
	// stream.go).
	Names []string
	// Parts makes the request a group (see Part); Data is then empty.
	Parts []Part
	Data  []byte
	Node  NodeInfo // join/add payload

	frame *frameBuf // the receive frame Data views, until Release
}

// Response is the server-to-client message.
//
// A response returned by a Pool call does not own Data or its Parts'
// Data: they are views into the pooled frame the response arrived in,
// valid until the caller calls Release. Every other field is the
// response's own. A response that is never released is never reused —
// forgetting Release only costs the frame an allocation later — but
// Data must not be used after it: the frame may already carry another
// message.
type Response struct {
	ID  uint64 // echoes Request.ID
	OK  bool
	Err string
	// Absent marks the refusal of a fetch for a block the node does
	// not hold: the structured form of "not found", beside Err's text.
	Absent bool
	// Parts answers a group fetch, one per requested block (see Part).
	Parts    []Part
	Data     []byte
	Capacity int64 // getcapb / stat
	Used     int64 // stat
	Blocks   int   // stat
	Ring     []NodeInfo

	frame *frameBuf
}

// Release drops the message's reference to the receive frame Data is
// a view of and sets Data to nil; the frame goes back to its pool once
// nothing retains it (see Retain). Releasing a message twice, or one
// that was not read off a connection, does nothing.
func (r *Request) Release() {
	r.Data = nil
	releaseFrame(&r.frame)
}

// Retain takes a reference of the caller's own to the receive frame
// the request's Data and Parts view, so they stay valid past Release
// until the returned Frame is released. A request that holds no frame
// — nothing of it views one, or it was not read off a connection —
// returns the zero Frame.
func (r *Request) Retain() Frame {
	if r.frame == nil {
		return Frame{}
	}
	r.frame.refs.Add(1)
	return Frame{r.frame}
}

// Release drops the response's reference to the receive frame Data is
// a view of and sets Data to nil. Releasing a response twice, or one
// that was not read off a connection, does nothing.
func (r *Response) Release() {
	r.Data = nil
	releaseFrame(&r.frame)
}

// Frame is a reference to a pooled receive frame, taken with
// Request.Retain: the bytes of the request that view the frame stay
// valid until Release. The zero Frame holds nothing.
type Frame struct{ buf *frameBuf }

// Release drops the reference and clears f; the last reference to go
// returns the frame to its pool. Releasing a cleared Frame does
// nothing.
func (f *Frame) Release() { releaseFrame(&f.buf) }

// Cap returns the capacity of the frame's buffer: the memory the
// reference keeps, which its size class may round up past the frame's
// own length.
func (f Frame) Cap() int {
	if f.buf == nil {
		return 0
	}
	return cap(f.buf.b)
}

// Hold pins f for as long as the response that answers with p is being
// written: Serve drops the pin once it has written the response. A
// handler answering with bytes it retained holds their frame on each
// part it answers with, so a release that races the write cannot hand
// the frame to another message while its bytes are still being sent.
func (p *Part) Hold(f Frame) {
	releaseFrame(&p.hold)
	if f.buf != nil {
		f.buf.refs.Add(1)
		p.hold = f.buf
	}
}

// MaxFrame bounds a single message (64 MiB) to keep a misbehaving peer
// from ballooning memory.
const MaxFrame = 64 << 20

// frameGrowStep bounds how much buffer a frame header can reserve
// before any body bytes arrive, so a lying header backed by a short
// body cannot force a MaxFrame allocation.
const frameGrowStep = 1 << 20

// frameHeaderSlack is the room a frame buffer keeps for everything in
// a frame but its payload: length prefix, op, names, segment control
// fields, a node descriptor.
const frameHeaderSlack = 4 << 10

// maxPooledFrame is the largest frame the pools keep: one carrying a
// full transfer segment, the largest the data path sends in steady
// state. The occasional giant frame is let go to the GC instead of
// pinning tens of megabytes per pooled buffer.
const maxPooledFrame = DefaultSegment + frameHeaderSlack

// frameClasses is the number of pooled size classes. Class k holds
// frames whose payload — what is left past frameHeaderSlack — is at
// most 1<<k bytes, in buffers of exactly classSize(k): payloads of 1 B
// up to DefaultSegment (1<<22).
const frameClasses = 23

// classSize is the capacity of a class-k frame buffer.
func classSize(k int) int { return 1<<k + frameHeaderSlack }

// frameClass returns the class of a frame of size bytes, or false for
// a frame too large to pool.
func frameClass(size int) (int, bool) {
	if size > maxPooledFrame {
		return 0, false
	}
	payload := max(size-frameHeaderSlack, 1)
	return bits.Len(uint(payload - 1)), true
}

// frameBuf is a pooled receive buffer with a reference count. Where
// bytes.Buffer at least doubles when it grows — which takes a buffer
// that must hold one segment and its header to two segments, past
// maxPooledFrame — a frameBuf can be grown to an exact size.
//
// readFrame hands the buffer out with one reference, which the message
// decoded from it owns; Request.Retain and Part.Hold take more. The
// last release returns the buffer to the pool of its class.
type frameBuf struct {
	leak leakWatch // first: empty without the race detector, it then takes no room
	refs atomic.Int32
	b    []byte
}

// reserve makes room for n more bytes of a frame of size bytes. A new
// backing array has no capacity to spare, except when the room
// completes a frame the pools keep: that buffer gets its class's size,
// so it goes back to that class's pool, and a stored block viewing it
// holds less than twice its bytes.
func (f *frameBuf) reserve(n, size int) {
	if cap(f.b)-len(f.b) < n {
		c := len(f.b) + n
		if k, ok := frameClass(size); ok && c == size {
			c = classSize(k)
		}
		b := make([]byte, len(f.b), c)
		copy(b, f.b)
		f.b = b
	}
}

// framePools keeps released frame buffers by size class, so a request
// frame gets a buffer of its own class: a small one never takes, and a
// block never pins, a segment-sized buffer.
var framePools [frameClasses]framePool

// framePool is one class's free list. Like the client's recycler it
// holds weak pointers only, so a buffer is reused between collections
// and freed by the next one if it is still idle: idle buffers never
// count as live heap. A sync.Pool keeps them through a collection, and
// with frames going back as their stored blocks are overwritten, at a
// size the next store may not want, the idle ones of every class raised
// checkpoint's peak RSS by a third. One list per class also hands a
// buffer released on one processor to a frame read on another, which a
// sync.Pool's per-processor slot does not. The two lists share only the
// weak pointers: the recycler searches eight buffers of mixed sizes for
// the smallest that fits, while a class's buffers are all one size, so
// taking one is popping the last live entry, the most recently
// released and still in cache, on a path every frame takes.
type framePool struct {
	mu   sync.Mutex
	free []weak.Pointer[frameBuf]
}

// maxFreeFrames bounds a class's free list. Its entries keep nothing
// alive, so the bound is on the list alone: a full list is compacted,
// and a buffer released past the bound goes to the collector.
const maxFreeFrames = 1024

// getFrameBuf returns an empty buffer for a frame of size bytes: a
// pooled one of the frame's class, which holds it, or else a new one
// for readFrame to grow as the bytes arrive. A response frame, which
// no handler can keep, may also take a free buffer of the next class
// up: the room it wastes goes back with the frame once its reader is
// done. It is there for the client's reads: run beside
// TestStoreBytesAllocBudget, TestWriteToAllocBudget read over
// its 0.10 B/B budget in 1 of 100 runs and up to 0.085 in others; with
// the next class, at most 0.045 in 140 (docs/PERF.md "Frame
// acquisition, simplified").
func getFrameBuf(size int, response bool) *frameBuf {
	k, ok := frameClass(size)
	if !ok {
		return new(frameBuf)
	}
	buf := takeFrameBuf(k)
	if buf == nil && response && k+1 < frameClasses {
		buf = takeFrameBuf(k + 1)
	}
	if buf == nil {
		return new(frameBuf)
	}
	buf.b = buf.b[:0]
	return buf
}

// takeFrameBuf returns the most recently released live buffer of class
// k, or nil.
func takeFrameBuf(k int) *frameBuf {
	p := &framePools[k]
	p.mu.Lock()
	defer p.mu.Unlock()
	for n := len(p.free); n > 0; n-- {
		buf := p.free[n-1].Value()
		p.free = p.free[:n-1]
		if buf != nil {
			return buf
		}
	}
	return nil
}

// putFrameBuf pools a buffer whose capacity is its class's size; any
// other — too large, or left part-grown by a failed read — goes to the
// collector.
func putFrameBuf(buf *frameBuf) {
	k, ok := frameClass(cap(buf.b))
	if !ok || cap(buf.b) != classSize(k) {
		return
	}
	w := weak.Make(buf)
	p := &framePools[k]
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) == maxFreeFrames {
		kept := p.free[:0]
		for _, e := range p.free {
			if e.Value() != nil {
				kept = append(kept, e)
			}
		}
		clear(p.free[len(kept):])
		p.free = kept
	}
	if len(p.free) < maxFreeFrames {
		p.free = append(p.free, w)
	}
}

// poisonByte fills a released frame under the race detector: a view
// kept past Release then reads as a run of it instead of the bytes that
// were there, which the byte-verifying suites catch.
const poisonByte = 0xdb

// releaseFrame drops the reference *f holds and clears *f, so a second
// release through it is a no-op. The last reference gives the buffer
// back to its pool, poisoned under the race detector.
func releaseFrame(f **frameBuf) {
	buf := *f
	if buf == nil {
		return
	}
	*f = nil
	switch n := buf.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("wire: receive frame released more often than it was retained")
	}
	if raceEnabled {
		buf.unwatch()
		for i := range buf.b {
			buf.b[i] = poisonByte
		}
	}
	putFrameBuf(buf)
}

// leakedFrames counts the frames collected while a message held them
// (see leakWatch).
var leakedFrames atomic.Int64

// LeakedFrames runs the collector and returns how many receive frames
// have been collected while a Request or Response held them: handed
// out with a payload and never released. Frames are watched only under
// the race detector; without it LeakedFrames returns 0 at once. A test
// binary calls it once its tests have run, to assert that every frame
// went back.
func LeakedFrames() int64 {
	if !raceEnabled {
		return 0
	}
	// One goroutine runs cleanups, a batch at a time. The first
	// collection queues the cleanups of the frames it frees with the
	// first marker's; the second marker's runs in a later batch, after
	// all of them.
	for i := 0; i < 2; i++ {
		done := make(chan struct{})
		runtime.AddCleanup(new([64]byte), func(ch chan struct{}) { close(ch) }, done)
		runtime.GC()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
		}
	}
	return leakedFrames.Load()
}

// readFrame reads one length-prefixed frame body into a pooled buffer
// of the frame's class, which holds it, or else into a new buffer that
// grows with the bytes actually received — each step at most doubles
// what has arrived, never trusting the header's length for the
// allocation, and the last step lands on the frame's exact size, or on
// its class's for a frame the pools keep (see reserve). The caller owns
// the buffer's one reference: it releases it, or hands it to the
// message decoded from it. A response frame may take a pooled buffer
// of the next class up (see getFrameBuf). No buffer is taken before the
// length prefix has arrived, so a connection idling between frames pins
// none.
func readFrame(r io.Reader, response bool) (*frameBuf, error) {
	size, err := readFrameLen(r)
	if err != nil {
		return nil, err
	}
	if size > MaxFrame {
		return nil, fmt.Errorf("wire: incoming frame of %d bytes exceeds limit", size)
	}
	n := int(size)
	buf := getFrameBuf(n, response)
	buf.refs.Store(1)
	for got := 0; got < n; got = len(buf.b) {
		step := n - got
		if cap(buf.b) < n {
			step = min(step, max(got, frameGrowStep))
			buf.reserve(step, n)
		}
		buf.b = buf.b[:got+step]
		if _, err := io.ReadFull(r, buf.b[got:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			releaseFrame(&buf)
			return nil, err
		}
	}
	return buf, nil
}

// readFrameLen reads a frame's 4-byte length prefix. The connection
// loops read through a *bufio.Reader, whose buffer already holds the
// bytes: peeking them costs no allocation, where a header array handed
// to an io.Reader escapes to the heap on every frame.
func readFrameLen(r io.Reader) (uint32, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint32(hdr[:]), nil
	}
	hdr, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF // io.ReadFull's answer to a torn prefix
		}
		return 0, err
	}
	size := binary.BigEndian.Uint32(hdr)
	br.Discard(4) //nolint:errcheck // the 4 bytes are buffered
	return size, nil
}

// DefaultTimeout bounds one RPC round trip.
const DefaultTimeout = 10 * time.Second

// respError converts an application-level refusal into the error a call
// returns: the response is still handed back alongside the error.
func respError(op Op, resp *Response) error {
	if !resp.OK && resp.Err != "" {
		return fmt.Errorf("wire: %s: %s", op, resp.Err)
	}
	return nil
}
