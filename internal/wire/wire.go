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

// Release gives the receive frame Data is a view of back to the frame
// pool and sets Data to nil. Releasing a message twice, or one that was
// not read off a connection, does nothing.
func (r *Request) Release() {
	r.Data = nil
	releaseFrame(&r.frame)
}

// Release gives the receive frame Data is a view of back to the frame
// pool and sets Data to nil. Releasing a response twice, or one that
// was not read off a connection, does nothing.
func (r *Response) Release() {
	r.Data = nil
	releaseFrame(&r.frame)
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

// maxPooledFrame caps the capacity of buffers returned to the pool: a
// frame carrying one full transfer segment, the largest the data path
// sends in steady state, must fit. The occasional giant frame is let go
// to the GC instead of pinning tens of megabytes per pooled buffer.
const maxPooledFrame = DefaultSegment + frameHeaderSlack

// frameBuf is a pooled receive buffer. Where bytes.Buffer at least
// doubles when it grows — which takes a buffer that must hold one
// segment and its header to two segments, past maxPooledFrame — a
// frameBuf can be grown to an exact size.
type frameBuf struct {
	leak leakWatch // first: empty without the race detector, it then takes no room
	b    []byte
}

// reserve makes room for n more bytes of a frame of size bytes. A new
// backing array has no capacity to spare, except when the room
// completes a frame the pool keeps: that buffer is rounded up to a
// payload of a power of two plus frameHeaderSlack (at most
// maxPooledFrame, which has that form), so frames of nearby sizes — an
// owner group's varies with how many blocks its owner holds — find a
// pooled buffer that holds them instead of regrowing it, and a block of
// a power of two with its header fits its class exactly.
func (f *frameBuf) reserve(n, size int) {
	if cap(f.b)-len(f.b) < n {
		c := len(f.b) + n
		if c == size && size <= maxPooledFrame {
			payload := max(size-frameHeaderSlack, 1)
			c = min(1<<bits.Len(uint(payload-1))+frameHeaderSlack, maxPooledFrame)
		}
		b := make([]byte, len(f.b), c)
		copy(b, f.b)
		f.b = b
	}
}

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

func getFrameBuf() *frameBuf {
	buf := framePool.Get().(*frameBuf)
	buf.b = buf.b[:0]
	return buf
}

func putFrameBuf(buf *frameBuf) {
	if cap(buf.b) <= maxPooledFrame {
		framePool.Put(buf)
	}
}

// poisonByte fills a released frame under the race detector: a view
// kept past Release then reads as a run of it instead of the bytes that
// were there, which the byte-verifying suites catch.
const poisonByte = 0xdb

// releaseFrame gives *f back to the pool, poisoned under the race
// detector, and clears *f so a second release is a no-op.
func releaseFrame(f **frameBuf) {
	buf := *f
	if buf == nil {
		return
	}
	*f = nil
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
// that grows with the bytes actually received — each step at most
// doubles what has arrived, never trusting the header's length for the
// allocation, and the last step lands on the frame's exact size, or on
// its rounded-up class for a frame the pool keeps (see reserve). The
// caller owns the buffer: it releases it, or hands it to the message
// decoded from it. No buffer is taken before the length prefix has
// arrived, so a connection idling between frames pins none.
func readFrame(r io.Reader) (*frameBuf, error) {
	size, err := readFrameLen(r)
	if err != nil {
		return nil, err
	}
	if size > MaxFrame {
		return nil, fmt.Errorf("wire: incoming frame of %d bytes exceeds limit", size)
	}
	n := int(size)
	buf := getFrameBuf()
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
