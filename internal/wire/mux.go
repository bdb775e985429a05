package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// v2Preamble opens every connection, and the server echoes it back as
// its banner before the first response. It names the dialect (codec.go)
// so a later version can be negotiated on the same handshake; read as a
// frame length prefix it is 0x50537632 (~1.3 GB), far above MaxFrame, so
// it can never be mistaken for a frame.
var v2Preamble = [4]byte{'P', 'S', 'v', '2'}

// KeepAlivePeriod is the TCP keep-alive interval on pooled connections.
const KeepAlivePeriod = 30 * time.Second

// DefaultInflight bounds concurrently served requests per
// connection when the server does not choose its own limit.
const DefaultInflight = 32

// ErrPoolClosed is returned by calls on a closed Pool.
var ErrPoolClosed = errors.New("wire: pool closed")

// Pool maintains one persistent multiplexed connection per peer
// address: requests are tagged with IDs, pipelined onto the shared
// connection, and demultiplexed as responses arrive, so concurrent
// callers share a socket instead of paying a dial per round trip.
//
// The zero value is not usable; call NewPool. All methods are safe for
// concurrent use.
type Pool struct {
	// Timeout bounds one round trip, dial and handshake included
	// (default DefaultTimeout). Set before first use.
	Timeout time.Duration

	// Metrics, when non-nil, receives per-call and per-connection
	// telemetry (see NewPoolMetrics). Set before first use.
	Metrics *PoolMetrics

	mu     sync.Mutex
	peers  map[string]*poolPeer
	closed bool
}

// poolPeer is the per-address pool state. Its mutex serializes
// connection establishment so a burst of first calls produces one dial
// instead of a thundering herd; calls on an established connection
// only hold it long enough to read the fields.
type poolPeer struct {
	mu sync.Mutex
	mc *muxConn
}

// NewPool returns an empty connection pool.
func NewPool() *Pool {
	return &Pool{peers: make(map[string]*poolPeer)}
}

func (p *Pool) timeout() time.Duration {
	if p.Timeout > 0 {
		return p.Timeout
	}
	return DefaultTimeout
}

// CallCtx performs one round trip to addr over the pooled multiplexed
// connection, establishing (or re-establishing) it as needed. timeout
// bounds the round trip, dial and handshake included (0 selects the
// pool's Timeout); ctx bounds it as well: cancellation aborts the wait
// for the response (and the dial) promptly, leaving the shared
// connection intact for other requests. The response's Data is a view
// into its receive frame until Release (see Response).
func (p *Pool) CallCtx(ctx context.Context, addr string, req *Request, timeout time.Duration) (*Response, error) {
	m := p.Metrics
	if m == nil {
		return p.callCtx(ctx, addr, req, timeout)
	}
	start := time.Now()
	resp, err := p.callCtx(ctx, addr, req, timeout)
	m.record(req.Op, start, req, resp, err)
	return resp, err
}

// callCtx is CallCtx's body, split out so instrumentation wraps the
// whole round trip (a retry included) exactly once.
func (p *Pool) callCtx(ctx context.Context, addr string, req *Request, timeout time.Duration) (*Response, error) {
	if timeout <= 0 {
		timeout = p.timeout()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	peer, err := p.peer(addr)
	if err != nil {
		return nil, err
	}
	mc, err := p.connected(peer, addr, timeout)
	if err != nil {
		return nil, err
	}
	resp, err := mc.call(ctx, addr, req, timeout)
	if err != nil && mc.dead() && ctx.Err() == nil {
		// The connection died under this request. Every protocol op is
		// idempotent, so retry exactly once on a fresh connection —
		// the common cause is a peer that restarted between calls.
		p.Metrics.countRetry()
		mc, err2 := p.connected(peer, addr, timeout)
		if err2 != nil {
			return nil, err
		}
		return mc.call(ctx, addr, req, timeout)
	}
	return resp, err
}

// peer returns the per-address pool entry, creating it on first use.
func (p *Pool) peer(addr string) (*poolPeer, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	peer := p.peers[addr]
	if peer == nil {
		peer = new(poolPeer)
		p.peers[addr] = peer
	}
	return peer, nil
}

// connected returns a live multiplexed connection for peer, dialing
// and handshaking under the peer lock so concurrent first calls share
// one dial. A failed dial or handshake is not remembered: the next call
// dials again.
func (p *Pool) connected(peer *poolPeer, addr string, timeout time.Duration) (*muxConn, error) {
	peer.mu.Lock()
	defer peer.mu.Unlock()
	if peer.mc != nil && !peer.mc.dead() {
		return peer.mc, nil
	}

	p.Metrics.countDial()
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		p.Metrics.countDialError()
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetKeepAlive(true)                  //nolint:errcheck
		tc.SetKeepAlivePeriod(KeepAlivePeriod) //nolint:errcheck
		tc.SetNoDelay(true)                    //nolint:errcheck
	}
	conn.SetDeadline(time.Now().Add(timeout)) //nolint:errcheck
	if _, err := conn.Write(v2Preamble[:]); err != nil {
		conn.Close()
		p.Metrics.countDialError()
		return nil, fmt.Errorf("wire: handshake with %s: %w", addr, err)
	}
	var banner [4]byte
	if _, err := io.ReadFull(conn, banner[:]); err != nil || banner != v2Preamble {
		conn.Close()
		p.Metrics.countDialError()
		if err == nil {
			err = fmt.Errorf("banner %q is not %q", banner[:], v2Preamble[:])
		}
		return nil, fmt.Errorf("wire: handshake with %s: %w", addr, err)
	}
	conn.SetDeadline(time.Time{}) //nolint:errcheck

	mc := newMuxConn(conn)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		mc.fail(ErrPoolClosed)
		return nil, ErrPoolClosed
	}
	p.mu.Unlock()
	peer.mc = mc
	return mc, nil
}

// Close tears down every pooled connection. Subsequent calls fail with
// ErrPoolClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	peers := p.peers
	p.peers = nil
	p.mu.Unlock()
	for _, peer := range peers {
		peer.mu.Lock()
		mc := peer.mc
		peer.mu.Unlock()
		if mc != nil {
			mc.fail(ErrPoolClosed)
		}
	}
}

// muxConn is one multiplexed connection: a write mutex serializes
// outgoing frames, a read loop demultiplexes responses by ID.
type muxConn struct {
	c   net.Conn
	wmu sync.Mutex

	mu      sync.Mutex
	pending map[uint64]*callSlot
	free    []*callSlot // retired slots ready for the next call
	nextID  uint64
	err     error
	done    chan struct{}
}

// callSlot is the state one call waits on: the channel the read loop
// delivers its response on and the timer bounding the wait. A muxConn
// recycles slots from call to call, so a round trip allocates neither.
// With Go 1.23 timer semantics (go.mod's go line) Stop and Reset leave
// no stale tick in the timer's channel, so a re-armed timer fires only
// for its own call.
type callSlot struct {
	ch    chan *Response // buffered: the read loop never waits on a caller
	timer *time.Timer
}

// maxFreeSlots bounds the slots one connection keeps for reuse, so a
// burst of concurrent calls leaves no lasting footprint.
const maxFreeSlots = 2 * DefaultInflight

func newMuxConn(c net.Conn) *muxConn {
	m := &muxConn{c: c, pending: make(map[uint64]*callSlot), done: make(chan struct{})}
	go m.readLoop()
	return m
}

func (m *muxConn) readLoop() {
	br := bufio.NewReaderSize(m.c, 64<<10)
	for {
		resp := new(Response)
		if err := readResponseV2(br, resp); err != nil {
			m.fail(fmt.Errorf("wire: connection lost: %w", err))
			return
		}
		m.mu.Lock()
		s := m.pending[resp.ID]
		delete(m.pending, resp.ID)
		m.mu.Unlock()
		if s != nil {
			s.ch <- resp // buffered
		} else {
			resp.Release() // a timed-out or cancelled caller's late response
		}
	}
}

// slotLocked returns a retired slot, or a new one when none is free.
func (m *muxConn) slotLocked() *callSlot {
	if n := len(m.free); n > 0 {
		s := m.free[n-1]
		m.free = m.free[:n-1]
		return s
	}
	return &callSlot{ch: make(chan *Response, 1)}
}

// retireLocked keeps the slot of a call that took its response —
// nothing pending, nothing buffered, timer stopped — for the next call,
// up to maxFreeSlots.
func (m *muxConn) retireLocked(s *callSlot) {
	if len(m.free) < maxFreeSlots {
		m.free = append(m.free, s)
	}
}

// abandon ends a call that stopped waiting (cancel or timeout) without
// taking its response. The read loop deletes an entry under m.mu and
// sends on its channel after unlocking, so a late response may still be
// on its way to the slot: it is never reused, only dropped.
func (m *muxConn) abandon(id uint64, s *callSlot) {
	s.timer.Stop()
	m.forget(id)
}

func (m *muxConn) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
		close(m.done)
	}
	m.mu.Unlock()
	m.c.Close()
}

func (m *muxConn) dead() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

func (m *muxConn) forget(id uint64) {
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()
}

func (m *muxConn) call(ctx context.Context, addr string, req *Request, timeout time.Duration) (*Response, error) {
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return nil, err
	}
	m.nextID++
	id := m.nextID
	s := m.slotLocked()
	m.pending[id] = s
	m.mu.Unlock()

	// Callers keep ownership of req: the ID rides the frame, not req.
	m.wmu.Lock()
	m.c.SetWriteDeadline(time.Now().Add(timeout)) //nolint:errcheck
	err := writeRequestV2(m.c, id, req)
	m.wmu.Unlock()
	if err != nil {
		// A half-written frame poisons the stream for every request.
		// The connection is done with, and its slots with it.
		m.fail(fmt.Errorf("wire: send to %s: %w", addr, err))
		m.forget(id)
		return nil, fmt.Errorf("wire: send to %s: %w", addr, err)
	}

	if s.timer == nil {
		s.timer = time.NewTimer(timeout)
	} else {
		s.timer.Reset(timeout)
	}
	select {
	case resp := <-s.ch:
		// The read loop deleted the entry and the channel is drained.
		s.timer.Stop()
		m.mu.Lock()
		m.retireLocked(s)
		m.mu.Unlock()
		return resp, respError(req.Op, resp)
	case <-ctx.Done():
		m.abandon(id, s)
		return nil, fmt.Errorf("wire: %s to %s: %w", req.Op, addr, ctx.Err())
	case <-m.done:
		// The response may have been delivered just before the
		// connection died; prefer it. A dead connection takes no more
		// calls, so its slots are not retired.
		s.timer.Stop()
		select {
		case resp := <-s.ch:
			return resp, respError(req.Op, resp)
		default:
		}
		m.forget(id)
		m.mu.Lock()
		err := m.err
		m.mu.Unlock()
		return nil, fmt.Errorf("wire: %s to %s: %w", req.Op, addr, err)
	case <-s.timer.C:
		m.abandon(id, s)
		return nil, fmt.Errorf("wire: %s to %s: timeout after %v", req.Op, addr, timeout)
	}
}

// Handler processes one request. Handlers run concurrently (bounded by
// the server's inflight limit), so they must be safe for concurrent
// use. The *Request is reused for a later request once the handler
// returns, so a handler must not keep the pointer. Data is valid until
// the handler returns: it is a view into the receive frame, which goes
// back to the pool once the response has been written — so a response
// may carry it, but a handler that keeps the bytes must copy them. The
// same holds for Parts, the slice and every Key and Data in it. The
// strings and the Names slice are the handler's own to keep. The
// response is only read, so a handler may return a shared one.
type Handler func(*Request) *Response

// Serve speaks the server side of the protocol on conn until the peer
// hangs up or the connection fails: requests are pipelined and their
// responses may go out of order. A connection that does not open with
// the preamble gets no banner and no handler call: Serve returns at
// once, for the caller to close it. maxInflight bounds concurrent
// handlers per connection (0 selects DefaultInflight).
func Serve(conn net.Conn, h Handler, maxInflight int) {
	if maxInflight <= 0 {
		maxInflight = DefaultInflight
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	peek, err := br.Peek(4)
	if err != nil || !bytes.Equal(peek, v2Preamble[:]) {
		return
	}
	br.Discard(4)                                         //nolint:errcheck
	conn.SetWriteDeadline(time.Now().Add(DefaultTimeout)) //nolint:errcheck
	if _, err := conn.Write(v2Preamble[:]); err != nil {
		return
	}
	sc := &serveConn{conn: conn, h: h, idle: make(chan *serveWorker, maxInflight)}
	var workers []*serveWorker
	defer func() {
		for _, w := range workers {
			close(w.run)
		}
		sc.wg.Wait()
	}()
	for {
		// A worker is taken before its request is read: an idle one, a
		// new one while fewer than maxInflight exist, else the next to
		// finish. It holds no frame buffer while it waits.
		var w *serveWorker
		select {
		case w = <-sc.idle:
		default:
			if len(workers) < maxInflight {
				w = &serveWorker{run: make(chan struct{}, 1)}
				workers = append(workers, w)
				sc.wg.Add(1)
				go sc.work(w)
			} else {
				w = <-sc.idle
			}
		}
		if err := readRequestV2(br, &w.req); err != nil {
			return
		}
		w.run <- struct{}{}
	}
}

// serveConn is the state one connection's workers share.
type serveConn struct {
	conn net.Conn
	h    Handler
	wmu  sync.Mutex        // serializes response frames
	idle chan *serveWorker // workers waiting for a request; room for all
	wg   sync.WaitGroup
}

// serveWorker serves the requests of one connection one at a time
// for as long as the connection lives, so a request costs the server
// neither a goroutine nor a Request: the read loop decodes into req and
// signals run.
type serveWorker struct {
	req Request
	run chan struct{}
}

func (sc *serveConn) work(w *serveWorker) {
	defer sc.wg.Done()
	for range w.run {
		resp := sc.h(&w.req)
		sc.wmu.Lock()
		sc.conn.SetWriteDeadline(time.Now().Add(DefaultTimeout)) //nolint:errcheck
		_ = writeResponseV2(sc.conn, w.req.ID, resp)
		sc.wmu.Unlock()
		w.req.Release()
		// Let the request's fields go before idling, but keep a small
		// parts list for the worker's next group.
		parts := w.req.Parts
		clear(parts)
		if cap(parts) > maxPooledPieces {
			parts = nil
		}
		w.req = Request{Parts: parts[:0]}
		sc.idle <- w
	}
}
