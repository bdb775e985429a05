package wire

import (
	"bytes"
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
// request, so both transports can be checked against the same golden
// expectations.
func echoHandler(req *Request) *Response {
	resp := &Response{OK: true}
	switch req.Op {
	case OpJoin, OpAdd:
		resp.Ring = []NodeInfo{req.Node}
	case OpRing:
		resp.Ring = []NodeInfo{{ID: ids.FromName("golden"), Addr: "golden:1"}}
	case OpGetCap:
		resp.Capacity = 1000
	case OpCapBatch:
		resp.Capacity = 1000 + int64(len(req.Names))
	case OpStore, OpDelete:
		resp.Data = []byte(req.Name)
	case OpFetch:
		resp.Data = append([]byte("data:"), req.Name...)
	case OpStoreStream, OpFetchStream, OpStoreWindow:
		// Streaming segments are plain request/response exchanges; the
		// golden pins that their control fields (Names) and payloads
		// survive both transports unchanged.
		resp.Data = []byte(req.Name)
		resp.Capacity = int64(len(req.Names))
	case OpStat:
		resp.Capacity, resp.Used, resp.Blocks = 7, 3, 2
	case OpPing, OpGossip:
		// The gossip piggyback is opaque bytes in Data on both the
		// request and the response; the golden pins that it survives
		// both transports unchanged in both directions.
		resp.Data = req.Data
	case OpPingReq:
		// An indirect probe carries its target in Node; the echo proves
		// the target identity crosses both codecs.
		resp.Data = []byte(req.Node.Addr)
	default:
		return &Response{Err: fmt.Sprintf("unknown op %q", req.Op)}
	}
	return resp
}

// startV2Server serves the dual-version loop (Serve) on an ephemeral
// port, counting accepted connections.
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

// startV1OnlyServer mimics the seed protocol exactly: read one frame,
// respond, close. No preamble handling — a v2 handshake dies here,
// which is what the fallback path must survive.
func startV1OnlyServer(t testing.TB, h Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var req Request
				if err := ReadFrame(conn, &req); err != nil {
					return
				}
				_ = WriteFrame(conn, h(&req))
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
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
	case OpGetCap:
		if resp.Capacity != 1000 {
			t.Fatalf("%s: capacity %d", op, resp.Capacity)
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
	case OpStoreStream, OpFetchStream, OpStoreWindow:
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
// that detector payloads — not just arbitrary bytes — cross every
// transport pairing.
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

// TestLiveProtocolCompatGolden runs every protocol op through all four
// version pairings: v1 and pooled-v2 clients against the dual-version
// server, and both against a strict v1-only (seed) server — so
// mixed-version rings keep working for the whole op set.
func TestLiveProtocolCompatGolden(t *testing.T) {
	v2Addr, _ := startV2Server(t, echoHandler)
	v1Addr := startV1OnlyServer(t, echoHandler)

	pairings := []struct {
		name string
		call func(addr string, req *Request) (*Response, error)
		addr string
	}{
		{"v1Client_v2Server", Call, v2Addr},
		{"v1Client_v1Server", Call, v1Addr},
	}
	for _, pairing := range pairings {
		t.Run(pairing.name, func(t *testing.T) {
			for _, op := range Ops {
				resp, err := pairing.call(pairing.addr, goldenRequest(op))
				checkGolden(t, op, resp, err)
			}
		})
	}
	for _, target := range []struct {
		name string
		addr string
	}{{"v2Client_v2Server", v2Addr}, {"v2Client_v1Server", v1Addr}} {
		t.Run(target.name, func(t *testing.T) {
			p := NewPool()
			defer p.Close()
			for _, op := range Ops {
				resp, err := p.Call(target.addr, goldenRequest(op))
				checkGolden(t, op, resp, err)
			}
		})
	}
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
			resp, err := p.Call(addr, &Request{Op: OpFetch, Name: name})
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

	if _, err := p.Call(addr, &Request{Op: OpFetch, Name: "slow"}); err == nil ||
		!strings.Contains(err.Error(), "timeout") {
		t.Fatalf("stalled request did not time out: %v", err)
	}
	// The connection must still serve other requests.
	resp, err := p.Call(addr, &Request{Op: OpFetch, Name: "fast"})
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
	if _, err := p.Call(addr, goldenRequest(OpGetCap)); err != nil {
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

	resp, err := p.Call(addr, goldenRequest(OpGetCap))
	if err != nil || resp.Capacity != 1000 {
		t.Fatalf("pool did not recover after peer restart: %v", err)
	}
}

// TestPoolClosed verifies calls after Close fail fast.
func TestPoolClosed(t *testing.T) {
	p := NewPool()
	p.Close()
	if _, err := p.Call("127.0.0.1:1", goldenRequest(OpRing)); err != ErrPoolClosed {
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
			p.Call(ln.Addr().String(), goldenRequest(OpGetCap)) //nolint:errcheck
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
	var frame bytes.Buffer
	if err := WriteFrame(&frame, req); err != nil {
		t.Fatal(err)
	}
	raw := frame.Bytes()

	writes := testing.AllocsPerRun(200, func() {
		if err := WriteFrame(io.Discard, req); err != nil {
			t.Fatal(err)
		}
	})
	// gob re-sends type info per frame (~15 allocs) but the frame
	// buffer itself must come from the pool.
	if writes > 40 {
		t.Fatalf("WriteFrame allocates %.0f/op, want <= 40", writes)
	}
	// Decoding pays gob's per-frame type-description parse (~220
	// allocs) on top of the payload copy; the body buffer itself must
	// come from the pool. The pin catches a lost pool or a quadratic
	// regression, with headroom for gob version drift.
	reads := testing.AllocsPerRun(200, func() {
		var got Request
		if err := ReadFrame(bytes.NewReader(raw), &got); err != nil {
			t.Fatal(err)
		}
	})
	if reads > 300 {
		t.Fatalf("ReadFrame allocates %.0f/op, want <= 300", reads)
	}

	// The v2 binary codec is why the multiplexed path is fast: a
	// handful of allocations per frame, not gob's per-frame type
	// compilation.
	var v2frame bytes.Buffer
	if err := writeRequestV2(&v2frame, req); err != nil {
		t.Fatal(err)
	}
	rawV2 := v2frame.Bytes()
	v2writes := testing.AllocsPerRun(200, func() {
		if err := writeRequestV2(io.Discard, req); err != nil {
			t.Fatal(err)
		}
	})
	if v2writes > 4 {
		t.Fatalf("writeRequestV2 allocates %.0f/op, want <= 4", v2writes)
	}
	v2reads := testing.AllocsPerRun(200, func() {
		var got Request
		if err := readRequestV2(bytes.NewReader(rawV2), &got); err != nil {
			t.Fatal(err)
		}
	})
	if v2reads > 12 {
		t.Fatalf("readRequestV2 allocates %.0f/op, want <= 12", v2reads)
	}
}

// capWriter records the capacity and backing array of the last slice
// written to it: writeV2 hands its whole frame buffer to one Write.
type capWriter struct {
	cap  int
	base *byte
}

func (w *capWriter) Write(p []byte) (int, error) {
	w.cap, w.base = cap(p), &p[0]
	return len(p), nil
}

// TestFullSegmentFramePooled pins the pool's size cap against the
// frames the data path actually sends: a frame carrying one full
// DefaultSegment of payload is a segment plus its header, and on both
// the sending and the receiving side its buffer must fit
// maxPooledFrame and come back for the next frame. With the cap at
// exactly one segment, every such buffer went to the garbage collector.
func TestFullSegmentFramePooled(t *testing.T) {
	req := EncodeStoreWindow("object.bin_3_1", WindowSegment{
		Stream: 1 << 60, Seq: 1, Total: 2, Size: 2 * DefaultSegment, Seg: DefaultSegment,
	}, make([]byte, DefaultSegment))
	var frame bytes.Buffer
	if err := writeRequestV2(&frame, req); err != nil {
		t.Fatal(err)
	}
	raw := frame.Bytes()

	// sync.Pool may drop an entry (it does so at random under the race
	// detector, and at a GC), so reuse is required of some frame in a
	// run, not of every one.
	const frames = 8
	var w capWriter
	var last *byte
	reused := false
	for i := 0; i < frames; i++ {
		if err := writeRequestV2(&w, req); err != nil {
			t.Fatal(err)
		}
		if w.cap > maxPooledFrame {
			t.Fatalf("send buffer of a full-segment frame has capacity %d, above the pool's cap %d", w.cap, maxPooledFrame)
		}
		reused = reused || w.base == last
		last = w.base
	}
	if !reused {
		t.Errorf("no send buffer was reused across %d full-segment frames", frames)
	}

	last, reused = nil, false
	for i := 0; i < frames; i++ {
		err := readFrameBody(bytes.NewReader(raw), func(body []byte) error {
			if cap(body) > maxPooledFrame {
				t.Fatalf("receive buffer of a full-segment frame has capacity %d, above the pool's cap %d", cap(body), maxPooledFrame)
			}
			reused = reused || &body[0] == last
			last = &body[0]
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reused {
		t.Errorf("no receive buffer was reused across %d full-segment frames", frames)
	}
}
