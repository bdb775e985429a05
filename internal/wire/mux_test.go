package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"peerstripe/internal/ids"
)

// echoHandler answers every op with a deterministic transform of the
// request, so a round trip can be checked against golden expectations.
func echoHandler(req *Request) *Response {
	resp := &Response{OK: true}
	switch req.Op {
	case OpJoin, OpAdd:
		resp.Ring = []NodeInfo{req.Node}
	case OpRing:
		resp.Ring = []NodeInfo{{ID: ids.FromName("golden"), Addr: "golden:1"}}
	case OpCapBatch:
		resp.Capacity = 1000 + int64(len(req.Names))
	case OpStore, OpDelete:
		resp.Data = []byte(req.Name)
	case OpFetch:
		resp.Data = append([]byte("data:"), req.Name...)
	case OpFetchStream, OpStoreWindow:
		// Streaming segments are plain request/response exchanges; the
		// golden pins that their control fields (Names) and payloads
		// survive the round trip unchanged.
		resp.Data = []byte(req.Name)
		resp.Capacity = int64(len(req.Names))
	case OpStat:
		resp.Capacity, resp.Used, resp.Blocks = 7, 3, 2
	case OpPing, OpGossip:
		// The gossip piggyback is opaque bytes in Data on both the
		// request and the response; the golden pins that it survives
		// the round trip unchanged in both directions.
		resp.Data = req.Data
	case OpPingReq:
		// An indirect probe carries its target in Node; the echo proves
		// the target identity crosses the codec.
		resp.Data = []byte(req.Node.Addr)
	default:
		return &Response{Err: fmt.Sprintf("echo: no golden answer for %q", req.Op)}
	}
	return resp
}

// startV2Server serves h through Serve on an ephemeral port, counting
// accepted connections.
func startV2Server(t testing.TB, h Handler) (addr string, accepts *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepts = new(atomic.Int64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				Serve(conn, h, 0)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		// Serve loops exit when their client hangs up; pool Close in
		// each test does that before cleanup runs.
	})
	return ln.Addr().String(), accepts
}

func checkGolden(t *testing.T, op Op, resp *Response, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	if !resp.OK {
		t.Fatalf("%s: not OK: %s", op, resp.Err)
	}
	switch op {
	case OpJoin, OpAdd:
		if len(resp.Ring) != 1 || resp.Ring[0].Addr != "peer:9" {
			t.Fatalf("%s: ring echo %v", op, resp.Ring)
		}
	case OpRing:
		if len(resp.Ring) != 1 || resp.Ring[0].Addr != "golden:1" {
			t.Fatalf("%s: ring %v", op, resp.Ring)
		}
	case OpCapBatch:
		if resp.Capacity != 1002 {
			t.Fatalf("%s: batched capacity %d", op, resp.Capacity)
		}
	case OpStore, OpDelete:
		if string(resp.Data) != "blk" {
			t.Fatalf("%s: name echo %q", op, resp.Data)
		}
	case OpFetch:
		if string(resp.Data) != "data:blk" {
			t.Fatalf("%s: data %q", op, resp.Data)
		}
	case OpFetchStream, OpStoreWindow:
		if string(resp.Data) != "blk" || resp.Capacity != 2 {
			t.Fatalf("%s: echo %q/%d", op, resp.Data, resp.Capacity)
		}
	case OpStat:
		if resp.Capacity != 7 || resp.Used != 3 || resp.Blocks != 2 {
			t.Fatalf("%s: stat %+v", op, resp)
		}
	case OpPing, OpGossip:
		if !bytes.Equal(resp.Data, goldenGossip()) {
			t.Fatalf("%s: gossip payload did not survive: %q", op, resp.Data)
		}
	case OpPingReq:
		if string(resp.Data) != "peer:9" {
			t.Fatalf("%s: target echo %q", op, resp.Data)
		}
	}
}

// goldenGossip is a real encoded membership batch, so the golden pins
// that detector payloads — not just arbitrary bytes — cross the wire.
func goldenGossip() []byte {
	return EncodeUpdates([]MemberUpdate{
		{Node: NodeInfo{ID: ids.FromName("m1"), Addr: "m1:1"}, State: StateAlive, Inc: 3},
		{Node: NodeInfo{ID: ids.FromName("m2"), Addr: "m2:2"}, State: StateSuspect, Inc: 1},
		{Node: NodeInfo{ID: ids.FromName("m3"), Addr: "m3:3"}, State: StateDead, Inc: 7},
	})
}

func goldenRequest(op Op) *Request {
	return &Request{
		Op:    op,
		Name:  "blk",
		Names: []string{"blk_0_0", "blk_0_1"},
		Data:  goldenGossip(),
		Node:  NodeInfo{ID: ids.FromName("peer"), Addr: "peer:9"},
	}
}

// TestLiveProtocolCompatGolden runs every protocol op through a Pool
// against Serve, and pins the handshake at both ends: a connection that
// does not open with the preamble is hung up on before any handler
// runs, and a peer that sends no banner is an error the pool does not
// remember.
func TestLiveProtocolCompatGolden(t *testing.T) {
	t.Run("v2Client_v2Server", func(t *testing.T) {
		addr, _ := startV2Server(t, echoHandler)
		p := NewPool()
		defer p.Close()
		for _, op := range Ops {
			resp, err := p.CallCtx(context.Background(), addr, goldenRequest(op), 0)
			checkGolden(t, op, resp, err)
		}
	})

	t.Run("noPreamble", func(t *testing.T) {
		var handled atomic.Int64
		addr, _ := startV2Server(t, func(req *Request) *Response {
			handled.Add(1)
			return echoHandler(req)
		})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// A well-formed request frame, but no preamble before it.
		if err := writeRequestV2(conn, 1, goldenRequest(OpRing)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		if got, err := io.ReadAll(conn); err != nil || len(got) != 0 {
			t.Fatalf("server answered a connection without the preamble: %d bytes, %v", len(got), err)
		}
		if n := handled.Load(); n != 0 {
			t.Fatalf("handler ran %d times on a connection without the preamble", n)
		}
	})

	t.Run("noBanner", func(t *testing.T) {
		// The first connection is hung up on without a banner; later ones
		// are served.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		var accepts atomic.Int64
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func(first bool) {
					defer conn.Close()
					if first {
						var preamble [4]byte
						io.ReadFull(conn, preamble[:]) //nolint:errcheck
						return
					}
					Serve(conn, echoHandler, 0)
				}(accepts.Add(1) == 1)
			}
		}()
		p := NewPool()
		defer p.Close()
		addr := ln.Addr().String()
		if _, err := p.CallCtx(context.Background(), addr, goldenRequest(OpRing), 0); err == nil || !strings.Contains(err.Error(), "handshake") {
			t.Fatalf("call to a peer that sent no banner returned %v, want a handshake error", err)
		}
		resp, err := p.CallCtx(context.Background(), addr, goldenRequest(OpRing), 0)
		checkGolden(t, OpRing, resp, err)
		if n := accepts.Load(); n != 2 {
			t.Fatalf("%d connections dialed for two calls, want a redial after the failed handshake", n)
		}
	})
}

// TestPoolMultiplexesOneConnection fires many concurrent requests and
// verifies they all complete correctly over a single dialed socket.
func TestPoolMultiplexesOneConnection(t *testing.T) {
	addr, accepts := startV2Server(t, func(req *Request) *Response {
		return &Response{OK: true, Data: append([]byte("r:"), req.Name...)}
	})
	p := NewPool()
	defer p.Close()

	const calls = 200
	errs := make([]error, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("blk-%d", i)
			resp, err := p.CallCtx(context.Background(), addr, &Request{Op: OpFetch, Name: name}, 0)
			if err != nil {
				errs[i] = err
				return
			}
			if string(resp.Data) != "r:"+name {
				errs[i] = fmt.Errorf("demux mismatch: got %q", resp.Data)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := accepts.Load(); n != 1 {
		t.Fatalf("%d connections dialed for %d multiplexed calls", n, calls)
	}
}

// TestPoolPerRequestDeadline checks that a stalled request times out
// on its own deadline without poisoning the shared connection.
func TestPoolPerRequestDeadline(t *testing.T) {
	release := make(chan struct{})
	addr, _ := startV2Server(t, func(req *Request) *Response {
		if req.Name == "slow" {
			<-release
		}
		return &Response{OK: true, Data: []byte(req.Name)}
	})
	p := NewPool()
	p.Timeout = 150 * time.Millisecond
	defer p.Close()
	defer close(release)

	if _, err := p.CallCtx(context.Background(), addr, &Request{Op: OpFetch, Name: "slow"}, 0); err == nil ||
		!strings.Contains(err.Error(), "timeout") {
		t.Fatalf("stalled request did not time out: %v", err)
	}
	// The connection must still serve other requests.
	resp, err := p.CallCtx(context.Background(), addr, &Request{Op: OpFetch, Name: "fast"}, 0)
	if err != nil || string(resp.Data) != "fast" {
		t.Fatalf("connection poisoned after timeout: %v", err)
	}
}

// TestPoolSurvivesPeerRestart kills the peer's listener and sockets
// and verifies the pool re-establishes on the next call.
func TestPoolSurvivesPeerRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var conns sync.Map
	serve := func(ln net.Listener) {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Store(conn, struct{}{})
			go func() {
				defer conn.Close()
				Serve(conn, echoHandler, 0)
			}()
		}
	}
	go serve(ln)

	p := NewPool()
	p.Timeout = 2 * time.Second
	defer p.Close()
	if _, err := p.CallCtx(context.Background(), addr, goldenRequest(OpCapBatch), 0); err != nil {
		t.Fatal(err)
	}
	ln.Close()
	conns.Range(func(k, _ any) bool {
		k.(net.Conn).Close()
		return true
	})
	// Restart on the same address.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer ln2.Close()
	go serve(ln2)

	resp, err := p.CallCtx(context.Background(), addr, goldenRequest(OpCapBatch), 0)
	if err != nil || resp.Capacity != 1002 {
		t.Fatalf("pool did not recover after peer restart: %v", err)
	}
}

// TestPoolClosed verifies calls after Close fail fast.
func TestPoolClosed(t *testing.T) {
	p := NewPool()
	p.Close()
	if _, err := p.CallCtx(context.Background(), "127.0.0.1:1", goldenRequest(OpRing), 0); err != ErrPoolClosed {
		t.Fatalf("call on closed pool: %v", err)
	}
	p.Close() // idempotent
}

// TestServeInflightBound proves the per-connection pipeline cap: with
// maxInflight handlers blocked, the next request waits rather than
// spawning an unbounded handler.
func TestServeInflightBound(t *testing.T) {
	var inflight, peak atomic.Int64
	gate := make(chan struct{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const bound = 4
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		Serve(conn, func(req *Request) *Response {
			cur := inflight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			<-gate
			inflight.Add(-1)
			return &Response{OK: true}
		}, bound)
	}()

	p := NewPool()
	p.Timeout = 5 * time.Second
	defer p.Close()
	var wg sync.WaitGroup
	for i := 0; i < 3*bound; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.CallCtx(context.Background(), ln.Addr().String(), goldenRequest(OpCapBatch), 0) //nolint:errcheck
		}()
	}
	// Let requests pile up against the gate, then release.
	time.Sleep(200 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := peak.Load(); got > bound {
		t.Fatalf("inflight peak %d exceeds bound %d", got, bound)
	}
}

// TestFrameSteadyStateAllocs pins the per-frame allocation budget of
// the pooled encode/decode path so a regression (e.g. losing the
// buffer pool) shows up as a test failure, not a profile surprise.
func TestFrameSteadyStateAllocs(t *testing.T) {
	req := goldenRequest(OpStore)
	req.Data = make([]byte, 64<<10)

	// The binary codec is why the data path is fast: a handful of
	// allocations per frame, where gob paid its per-frame type
	// compilation.
	var v2frame bytes.Buffer
	if err := writeRequestV2(&v2frame, 1, req); err != nil {
		t.Fatal(err)
	}
	rawV2 := v2frame.Bytes()
	v2writes := testing.AllocsPerRun(200, func() {
		if err := writeRequestV2(io.Discard, 1, req); err != nil {
			t.Fatal(err)
		}
	})
	if v2writes > 4 {
		t.Fatalf("writeRequestV2 allocates %.0f/op, want <= 4", v2writes)
	}
	// Read through a buffered reader, as the connection loops do, and
	// released, a request costs exactly the strings it hands over: its
	// name, the Names slice and its two strings, and the node address.
	// The payload is a view into the frame, the op maps onto its
	// constant, the length prefix is peeked, the frame buffer is pooled.
	src := bytes.NewReader(rawV2)
	br := bufio.NewReader(src)
	v2reads := testing.AllocsPerRun(200, func() {
		src.Reset(rawV2)
		br.Reset(src)
		var got Request
		if err := readRequestV2(br, &got); err != nil {
			t.Fatal(err)
		}
		got.Release()
	})
	if v2reads > 5 {
		t.Fatalf("readRequestV2 allocates %.0f/op, want <= 5", v2reads)
	}
}

// pieceWriter records the pieces a frame is written in: writeV2 hands
// net.Buffers to a writer without writev one piece per Write.
type pieceWriter struct{ pieces [][]byte }

func (w *pieceWriter) Write(p []byte) (int, error) {
	w.pieces = append(w.pieces, p)
	return len(p), nil
}

// TestFullSegmentFramePooled pins the send and receive buffers against
// the frames the data path actually sends, one full DefaultSegment of
// payload each. On the way out the payload is not copied at all — the
// writer gets the caller's own memory as the middle piece — and the head
// buffer around it is small and reused. On the way in the frame buffer
// fits maxPooledFrame and comes back for the next frame; with the cap at
// exactly one segment, every such buffer went to the garbage collector.
func TestFullSegmentFramePooled(t *testing.T) {
	payload := make([]byte, DefaultSegment)
	req := EncodeStoreWindow("object.bin_3_1", WindowSegment{
		Stream: 1 << 60, Seq: 1, Total: 2, Size: 2 * DefaultSegment, Seg: DefaultSegment,
	}, payload)
	var frame bytes.Buffer
	if err := writeRequestV2(&frame, 1, req); err != nil {
		t.Fatal(err)
	}
	raw := frame.Bytes()

	// sync.Pool may drop an entry (it does so at random under the race
	// detector, and at a GC), so reuse is required of some frame in a
	// run, not of every one.
	const frames = 8
	var last *byte
	reused := false
	for i := 0; i < frames; i++ {
		var w pieceWriter
		if err := writeRequestV2(&w, 1, req); err != nil {
			t.Fatal(err)
		}
		if len(w.pieces) != 3 || &w.pieces[1][0] != &payload[0] || len(w.pieces[1]) != len(payload) {
			t.Fatalf("frame written as %d pieces, want head, the payload itself, tail", len(w.pieces))
		}
		if c := cap(w.pieces[0]); c > maxPooledHead {
			t.Fatalf("send head of a full-segment frame has capacity %d, above the head pool's cap %d", c, maxPooledHead)
		}
		reused = reused || &w.pieces[0][0] == last
		last = &w.pieces[0][0]
	}
	if !reused {
		t.Errorf("no send head was reused across %d full-segment frames", frames)
	}

	last, reused = nil, false
	for i := 0; i < frames; i++ {
		f, err := readFrame(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if cap(f.b) > maxPooledFrame {
			t.Fatalf("receive buffer of a full-segment frame has capacity %d, above the pool's cap %d", cap(f.b), maxPooledFrame)
		}
		reused = reused || &f.b[0] == last
		last = &f.b[0]
		releaseFrame(&f)
	}
	if !reused {
		t.Errorf("no receive buffer was reused across %d full-segment frames", frames)
	}
}

// TestPoolHandshakeTimeoutKeepsV2 checks that a banner arriving too late
// for a short-deadline call fails that call as a timeout and nothing
// more: the next call must dial again and get a connection.
func TestPoolHandshakeTimeoutKeepsV2(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for first := true; ; first = false {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(slow bool) {
				defer conn.Close()
				if slow {
					time.Sleep(100 * time.Millisecond) // the banner misses the first call's deadline
				}
				Serve(conn, echoHandler, 0)
			}(first)
		}
	}()
	p := NewPool()
	defer p.Close()
	addr := ln.Addr().String()
	_, err = p.CallCtx(context.Background(), addr, goldenRequest(OpCapBatch), 20*time.Millisecond)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("call whose handshake outlived its deadline returned %v, want a timeout", err)
	}
	resp, err := p.CallCtx(context.Background(), addr, goldenRequest(OpCapBatch), 2*time.Second)
	checkGolden(t, OpCapBatch, resp, err)
	if peer, _ := p.peer(addr); peer.mc == nil {
		t.Fatal("peer left without a connection after a handshake timeout")
	}
}
