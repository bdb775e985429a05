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
	"sync"
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
	OpStore    Op = "store"   // store a named block (direct transfer)
	OpFetch    Op = "fetch"   // fetch a named block
	OpDelete   Op = "delete"  // remove a named block
	OpStat     Op = "stat"    // node status: capacity, used, block count

	// Streaming transfers (see stream.go): blocks larger than one
	// segment flow as a sequence of bounded segments, each an ordinary
	// request/response exchange.
	OpFetchStream Op = "fetchstream" // one ranged read of a block
	OpStoreWindow Op = "storewin"    // one windowed upload segment, any order

	// Failure detection and membership gossip (see gossip.go). The
	// payloads ride Request.Data / Response.Data as an opaque byte
	// encoding, versioned apart from the frame format.
	OpPing    Op = "ping"    // direct liveness probe, gossip piggybacked
	OpPingReq Op = "pingreq" // ask a peer to probe a target on our behalf
	OpGossip  Op = "gossip"  // membership delta push (join/suspect/dead/refute)
)

// Ops lists every protocol operation; the protocol golden test iterates
// it so a new op cannot ship without a round trip through Pool and Serve.
var Ops = []Op{OpJoin, OpRing, OpAdd, OpCapBatch, OpStore, OpFetch, OpDelete, OpStat, OpFetchStream, OpStoreWindow, OpPing, OpPingReq, OpGossip}

// NodeInfo identifies one ring member.
type NodeInfo struct {
	ID   ids.ID
	Addr string
}

// Request is the client-to-server message.
type Request struct {
	// ID matches a response to its request on a multiplexed
	// connection.
	ID   uint64
	Op   Op
	Name string
	// Names carries the block names of one batched capacity probe
	// (OpCapBatch): every block of a chunk that the probed node owns,
	// so a store costs one round trip per owner instead of one per
	// block.
	Names []string
	Data  []byte
	Node  NodeInfo // join/add payload
}

// Response is the server-to-client message.
type Response struct {
	ID       uint64 // echoes Request.ID
	OK       bool
	Err      string
	Data     []byte
	Capacity int64 // getcapb / stat
	Used     int64 // stat
	Blocks   int   // stat
	Ring     []NodeInfo
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

// frameBuf is a pooled frame buffer. Where bytes.Buffer at least
// doubles when it grows — which takes a buffer that must hold one
// segment and its header to two segments, past maxPooledFrame — a
// frameBuf can be grown to an exact size.
type frameBuf struct{ b []byte }

// reserve makes room for n more bytes, with no capacity to spare when
// that takes a new backing array.
func (f *frameBuf) reserve(n int) {
	if cap(f.b)-len(f.b) < n {
		b := make([]byte, len(f.b), len(f.b)+n)
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

// readFrameBody reads one length-prefixed frame body into a pooled
// buffer that grows with the bytes actually received — each step at
// most doubles what has arrived, never trusting the header's length
// for the allocation, and the last step lands on the frame's exact
// size — and hands it to use. The buffer is released afterwards, so use
// must not retain it. No buffer is taken before the length prefix has
// arrived, so a connection idling between frames pins none.
func readFrameBody(r io.Reader, use func([]byte) error) error {
	size, err := readFrameLen(r)
	if err != nil {
		return err
	}
	if size > MaxFrame {
		return fmt.Errorf("wire: incoming frame of %d bytes exceeds limit", size)
	}
	n := int(size)
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	for got := 0; got < n; got = len(buf.b) {
		step := n - got
		if cap(buf.b) < n {
			step = min(step, max(got, frameGrowStep))
			buf.reserve(step)
		}
		buf.b = buf.b[:got+step]
		if _, err := io.ReadFull(r, buf.b[got:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return use(buf.b)
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
