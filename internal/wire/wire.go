// Package wire is the RPC layer of the live implementation (§5): a
// length-prefixed gob protocol over TCP. Control messages (lookup,
// getCapacity, membership) ride the same connections as data transfers,
// which — as in the paper — go node-to-node directly rather than
// through overlay routing.
//
// Two transports share the frame format:
//
//   - v1: one request and one response per connection (the original
//     single-shot protocol). Call speaks it; Serve still accepts it.
//   - v2: request IDs multiplexed over a persistent connection, opened
//     by a 4-byte preamble (see mux.go). Pool speaks it, falling back
//     to v1 when the peer predates it.
package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
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
	OpGetCap   Op = "getcap"  // §4.3 capacity probe
	OpCapBatch Op = "getcapb" // batched capacity probe: one round trip covers every block a node owns
	OpStore    Op = "store"   // store a named block (direct transfer)
	OpFetch    Op = "fetch"   // fetch a named block
	OpDelete   Op = "delete"  // remove a named block
	OpStat     Op = "stat"    // node status: capacity, used, block count

	// Streaming transfers (see stream.go): blocks larger than one
	// frame flow as a sequence of bounded segments, each an ordinary
	// request/response exchange, so a pre-streaming peer rejects the
	// first segment gracefully ("unknown op") instead of dying on an
	// unparseable frame.
	OpStoreStream Op = "storestream" // one upload segment of a block, strictly in order
	OpFetchStream Op = "fetchstream" // one ranged read of a block
	OpStoreWindow Op = "storewin"    // one windowed upload segment, any order

	// Failure detection and membership gossip (see gossip.go). The
	// payloads ride Request.Data / Response.Data as an opaque byte
	// encoding, so both frame codecs carry them unchanged and a
	// pre-gossip peer answers "unknown op" gracefully — which a
	// detector reads as "reachable but old", never as a failure.
	OpPing    Op = "ping"    // direct liveness probe, gossip piggybacked
	OpPingReq Op = "pingreq" // ask a peer to probe a target on our behalf
	OpGossip  Op = "gossip"  // membership delta push (join/suspect/dead/refute)
)

// Ops lists every protocol operation; the protocol-compatibility tests
// iterate it so a new op cannot ship without a mixed-version check.
var Ops = []Op{OpJoin, OpRing, OpAdd, OpGetCap, OpCapBatch, OpStore, OpFetch, OpDelete, OpStat, OpStoreStream, OpFetchStream, OpStoreWindow, OpPing, OpPingReq, OpGossip}

// NodeInfo identifies one ring member.
type NodeInfo struct {
	ID   ids.ID
	Addr string
}

// Request is the client-to-server message.
type Request struct {
	// ID matches a response to its request on a multiplexed (v2)
	// connection. Single-shot v1 exchanges leave it zero.
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
	ID       uint64 // echoes Request.ID on v2 connections
	OK       bool
	Err      string
	Data     []byte
	Capacity int64 // getcap / getcapb / stat
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

// Write appends p; it is the io.Writer the v1 gob encoder needs.
func (f *frameBuf) Write(p []byte) (int, error) {
	f.b = append(f.b, p...)
	return len(p), nil
}

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

// WriteFrame writes one gob-encoded value with a 4-byte length prefix.
// The frame is assembled in a pooled buffer and written with a single
// Write call.
func WriteFrame(w io.Writer, v any) error {
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	buf.b = append(buf.b, 0, 0, 0, 0) // length prefix, patched below
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	b := buf.b
	n := len(b) - 4
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(n))
	_, err := w.Write(b)
	return err
}

// readFrameBody reads one length-prefixed frame body into a pooled
// buffer that grows with the bytes actually received — each step at
// most doubles what has arrived, never trusting the header's length
// for the allocation, and the last step lands on the frame's exact
// size — and hands it to use. The buffer is released afterwards, so use
// must not retain it.
func readFrameBody(r io.Reader, use func([]byte) error) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	size := binary.BigEndian.Uint32(hdr[:])
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

// ReadFrame reads one length-prefixed gob value into v.
func ReadFrame(r io.Reader, v any) error {
	return readFrameBody(r, func(body []byte) error {
		if !gobFramesSane(body) {
			return fmt.Errorf("wire: corrupt gob frame")
		}
		return gob.NewDecoder(bytes.NewReader(body)).Decode(v)
	})
}

// gobFramesSane reports whether every gob message length declared
// inside body fits the bytes that follow it. gob's decoder allocates
// whatever a message's length prefix claims (up to its internal 1 GB
// cap) before reading, so without this check a tiny forged frame could
// cost a huge allocation.
func gobFramesSane(body []byte) bool {
	for len(body) > 0 {
		v, n := gobUint(body)
		if n <= 0 || v > uint64(len(body)-n) {
			return false
		}
		body = body[n+int(v):]
	}
	return true
}

// gobUint decodes gob's unsigned-integer wire form (see the encoding
// details in the encoding/gob docs): values below 128 are a single
// byte; otherwise a byte holding the negated byte count precedes a
// minimal-length big-endian value. Returns the bytes consumed, 0 on
// malformed input.
func gobUint(b []byte) (uint64, int) {
	if len(b) == 0 {
		return 0, 0
	}
	if b[0] < 128 {
		return uint64(b[0]), 1
	}
	cnt := int(-int8(b[0]))
	if cnt < 1 || cnt > 8 || len(b) < 1+cnt {
		return 0, 0
	}
	var v uint64
	for i := 0; i < cnt; i++ {
		v = v<<8 | uint64(b[1+i])
	}
	return v, 1 + cnt
}

// DefaultTimeout bounds one RPC round trip.
const DefaultTimeout = 10 * time.Second

// respError converts an application-level refusal into the error shape
// both transports return: the response is still handed back alongside
// the error.
func respError(op Op, resp *Response) error {
	if !resp.OK && resp.Err != "" {
		return fmt.Errorf("wire: %s: %s", op, resp.Err)
	}
	return nil
}

// Call performs one single-shot (v1) request/response round trip to
// addr with the default timeout.
func Call(addr string, req *Request) (*Response, error) {
	return CallTimeout(addr, req, DefaultTimeout)
}

// CallTimeout is Call with an explicit round-trip deadline.
func CallTimeout(addr string, req *Request, timeout time.Duration) (*Response, error) {
	return CallCtx(context.Background(), addr, req, timeout)
}

// CallCtx is the single-shot (v1) round trip bounded by both the
// timeout and ctx: a ctx deadline earlier than the timeout wins, and
// cancellation severs the connection immediately so the caller is not
// left waiting out the full deadline.
func CallCtx(ctx context.Context, addr string, req *Request, timeout time.Duration) (*Response, error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("wire: dial %s: %w", addr, ctxErr)
		}
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	deadline := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	// A cancel-induced close surfaces as a connection error; report the
	// cancellation itself so callers can match context.Canceled.
	ctxOr := func(err error) error {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return err
	}
	if err := WriteFrame(conn, req); err != nil {
		return nil, fmt.Errorf("wire: send to %s: %w", addr, ctxOr(err))
	}
	var resp Response
	if err := ReadFrame(conn, &resp); err != nil {
		return nil, fmt.Errorf("wire: recv from %s: %w", addr, ctxOr(err))
	}
	return &resp, respError(req.Op, &resp)
}
