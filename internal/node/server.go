// Package node is the live implementation of PeerStripe (§5): real
// storage nodes speaking the wire protocol over TCP, a full-membership
// ring view (the directly connected configuration the paper's simulator
// and lab deployment both use), and a client that stores and retrieves
// striped, erasure-coded files against the ring.
package node

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"peerstripe/internal/ids"
	"peerstripe/internal/telemetry"
	"peerstripe/internal/wire"
)

// streamStaleAfter bounds how long a partial streaming upload may sit
// idle before its staging buffer is reclaimed (a crashed client).
const streamStaleAfter = 30 * time.Second

// maxStagedStreams bounds concurrently staged streaming uploads so a
// misbehaving client cannot hold unbounded partial blocks.
const maxStagedStreams = 128

// storeStage is one in-progress windowed upload (OpStoreWindow):
// segments land at seq*seg in a pre-sized buffer in whatever order they
// arrive, and the completed block commits atomically through the same
// path as a single-frame store.
type storeStage struct {
	name    string
	buf     []byte // assembled bytes (left nil in discard mode)
	got     int64  // bytes received so far
	have    []bool // per-segment received bitmap
	seg     int64  // fixed segment size
	total   int
	size    int64
	touched time.Time
}

// storedBlock is one block the node holds: size logical bytes, and
// data, the bytes themselves (none in discard mode). A block stored
// from a single frame keeps that receive frame, held with the other
// blocks of its request; a block assembled from windowed segments
// keeps its staging buffer instead.
type storedBlock struct {
	data []byte
	size int64
	held *heldFrame
}

// heldFrame is a receive frame that stored blocks view: its request's
// blocks share it, and the last of them to be deleted or overwritten
// gives it back to the wire pools. The node's block store is those
// pools: it neither copies a stored block nor allocates its bytes.
type heldFrame struct {
	frame  wire.Frame
	blocks int
}

// Server is one live storage node, serving pipelined multiplexed
// requests on every connection. Blocks larger than one segment arrive
// as windowed OpStoreWindow segments; blocks too large for one frame
// leave as ranged OpFetch parts. With a DetectorConfig the node also
// runs the SWIM-style failure detector (detector.go), and with a
// RepairConfig the autonomous repair daemon (repairer.go).
type Server struct {
	ID       ids.ID
	capacity int64

	// reg is the node's always-on metrics registry (see Telemetry);
	// met holds the dispatch instruments, resolved once at
	// construction.
	reg *telemetry.Registry
	met *serverMetrics

	ln        net.Listener
	advertise string // address other nodes dial (defaults to ln.Addr())

	// pool carries the node's own outbound traffic: its join, probes,
	// indirect probes served for peers, gossip pushes, and join
	// broadcasts. Close closes it.
	pool *wire.Pool
	det  *detector
	rep  *repairer

	// windowOps counts served OpStoreWindow upload segments; tests
	// assert large transfers took the windowed path.
	windowOps atomic.Int64
	// fetchOps counts served block reads — each part of a fetch group;
	// tests assert ranged reads touch only the chunks they must.
	fetchOps atomic.Int64

	mu          sync.Mutex
	maxInflight int
	used        int64 // logical bytes of the blocks held
	frameBytes  int64 // capacity of the receive frames blocks keep
	blocks      map[string]storedBlock
	stages      map[uint64]*storeStage
	committed   map[uint64]time.Time // recently committed streams, for retried final acks
	discard     bool
	ring        []wire.NodeInfo // placement view: alive+suspect members, sorted by ID
	members     map[ids.ID]*member
	incarnation uint64        // self incarnation; bumps only to refute suspicion
	gossipQ     []gossipEntry // deltas awaiting epidemic retransmission
	conns       map[net.Conn]struct{}
	closed      bool
	stop        chan struct{}
	wg          sync.WaitGroup
}

// WindowOps returns how many windowed (out-of-order) upload segments
// were served.
func (s *Server) WindowOps() int64 { return s.windowOps.Load() }

// FetchOps returns how many block reads were served: a fetch group
// counts each of its parts.
func (s *Server) FetchOps() int64 { return s.fetchOps.Load() }

// SetDiscard switches the node into accounting-only mode: stores are
// accepted (capacity checked, usage tracked) but the bytes are
// dropped. Test harnesses measuring client-side memory use it so the
// in-process server's copy of the data does not dominate the heap.
func (s *Server) SetDiscard(on bool) {
	s.mu.Lock()
	s.discard = on
	s.mu.Unlock()
}

// SetMaxInflight bounds concurrently served requests per connection
// (0 selects wire.DefaultInflight). Connections accepted after the call
// pick up the new bound.
func (s *Server) SetMaxInflight(n int) {
	s.mu.Lock()
	s.maxInflight = n
	s.mu.Unlock()
}

// ServerOptions configures the optional server subsystems. The zero
// value reproduces NewServer: address-derived identity, seed join, no
// failure detector, no repair daemon.
type ServerOptions struct {
	// ID overrides the address-derived ring identifier — stable
	// identity across restarts and deterministic test placement.
	ID *ids.ID
	// Advertise is the address other nodes should dial (defaults to
	// the listen address) — proxy-fronted and NATed deployments.
	Advertise string
	// StaticRing preloads the membership view instead of joining
	// through a seed — fixed configurations and test harnesses that
	// route inter-node traffic through fault proxies. When set, the
	// seed address is ignored.
	StaticRing []wire.NodeInfo
	// Detector, when non-nil, runs the SWIM-style failure detector:
	// periodic probes, indirect probes, suspicion, death commits, and
	// membership gossip (detector.go).
	Detector *DetectorConfig
	// Repair, when non-nil, runs the autonomous repair daemon: files
	// whose metadata this node holds are re-repaired through the live
	// client path when a death commits (repairer.go). Deaths commit
	// via the local detector or via gossip from detecting peers, so
	// Repair is useful with or without Detector.
	Repair *RepairConfig
}

// NewServer creates a node contributing capacity bytes, listening on
// addr ("127.0.0.1:0" for an ephemeral test port). If seedAddr is
// non-empty the node joins the existing ring through it (Figure 1);
// otherwise it starts a new ring. The node's identifier is derived
// from its listen address.
func NewServer(addr string, capacity int64, seedAddr string) (*Server, error) {
	return NewServerOpts(addr, capacity, seedAddr, ServerOptions{})
}

// NewServerID is NewServer with an explicit ring identifier: stable
// identity across restarts (psnode -name) and deterministic placement
// in test harnesses.
func NewServerID(addr string, id ids.ID, capacity int64, seedAddr string) (*Server, error) {
	return NewServerOpts(addr, capacity, seedAddr, ServerOptions{ID: &id})
}

// NewServerOpts is NewServer with the optional subsystems configured.
func NewServerOpts(addr string, capacity int64, seedAddr string, o ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("node: listen %s: %w", addr, err)
	}
	reg := telemetry.NewRegistry()
	s := &Server{
		capacity:  capacity,
		reg:       reg,
		met:       newServerMetrics(reg),
		ln:        ln,
		pool:      wire.NewPool(),
		blocks:    make(map[string]storedBlock),
		stages:    make(map[uint64]*storeStage),
		committed: make(map[uint64]time.Time),
		conns:     make(map[net.Conn]struct{}),
		members:   make(map[ids.ID]*member),
		stop:      make(chan struct{}),
	}
	s.registerStateMetrics()
	if o.ID != nil {
		s.ID = *o.ID
	} else {
		s.ID = ids.FromName("node@" + ln.Addr().String())
	}
	s.advertise = o.Advertise
	if s.advertise == "" {
		s.advertise = ln.Addr().String()
	}
	self := wire.NodeInfo{ID: s.ID, Addr: s.advertise}
	s.members[s.ID] = &member{info: self, state: wire.StateAlive}
	for _, n := range o.StaticRing {
		if n.ID != s.ID {
			s.members[n.ID] = &member{info: n, state: wire.StateAlive}
		}
	}
	s.rebuildRingLocked() // no lock needed yet: not serving

	s.wg.Add(1)
	go s.acceptLoop()

	if seedAddr != "" && len(o.StaticRing) == 0 {
		resp, err := s.pool.CallCtx(context.Background(), seedAddr, &wire.Request{Op: wire.OpJoin, Node: self}, 0)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("node: join via %s: %w", seedAddr, err)
		}
		s.applyAliveInfos(resp.Ring)
	}
	if o.Repair != nil {
		s.rep, err = newRepairer(s, *o.Repair)
		if err != nil {
			s.Close()
			return nil, err
		}
	}
	if o.Detector != nil {
		s.det = newDetector(s, *o.Detector)
	}
	return s, nil
}

// Addr returns the node's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Telemetry returns the node's metrics registry: per-op dispatch
// counts and latency, inflight and staging gauges, storage usage, and
// — when the subsystems run — detector and repair metrics. Callers may
// snapshot or render it at will.
func (s *Server) Telemetry() *telemetry.Registry { return s.reg }

// registerStateMetrics mirrors the server's existing state — storage
// accounting, staged streaming uploads, the streaming op counters —
// into the registry as func-backed metrics, read at snapshot time
// under the server lock.
func (s *Server) registerStateMetrics() {
	s.reg.GaugeFunc("ps_node_capacity_bytes", "Capacity this node contributes.", func() int64 {
		return s.capacity
	})
	s.reg.GaugeFunc("ps_node_used_bytes", "Bytes currently stored.", s.Used)
	s.reg.GaugeFunc("ps_node_frame_bytes", "Receive-frame capacity stored blocks keep: the memory behind ps_node_used_bytes, each frame rounded up to its size class.", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.frameBytes
	})
	s.reg.GaugeFunc("ps_node_blocks", "Blocks currently held.", func() int64 {
		return int64(s.NumBlocks())
	})
	s.reg.GaugeFunc("ps_node_staging_bytes", "Bytes sitting in partial streaming-upload staging buffers.", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		var n int64
		for _, st := range s.stages {
			n += st.got
		}
		return n
	})
	s.reg.GaugeFunc("ps_node_staging_streams", "Streaming uploads currently staged.", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.stages))
	})
	s.reg.CounterFunc("ps_node_window_segments_total", "Out-of-order windowed upload segments served.", s.windowOps.Load)
	s.reg.CounterFunc("ps_node_block_reads_total", "Block reads served: a plain OpFetch, and every part of an OpFetch group.", s.fetchOps.Load)
}

// Close stops serving: the detector and repair daemon stop, the
// listener, every open connection and the node's own pooled
// connections to its peers are closed (persistent clients see the
// hangup and fail over). Stored blocks are discarded, as when a
// desktop departs, and the receive frames they kept go back to the
// wire pools.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	close(s.stop)
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	// Closing the pool fails any in-flight probe or gossip push
	// immediately, so the background loops observe stop promptly.
	s.pool.Close()
	if s.rep != nil {
		s.rep.closeClient()
	}
	s.wg.Wait()
	s.mu.Lock()
	for name, b := range s.blocks {
		delete(s.blocks, name)
		s.used -= b.size
		s.dropFrameLocked(b.held)
	}
	s.mu.Unlock()
	return err
}

// RingSize returns the node's current membership view size.
func (s *Server) RingSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ring)
}

// Used returns bytes currently stored.
func (s *Server) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// NumBlocks returns the number of blocks held.
func (s *Server) NumBlocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		inflight := s.maxInflight
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			wire.Serve(conn, s.handle, inflight)
			conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// handle instruments one request around the dispatch: per-op count,
// inflight gauge, handling latency, and an error count when the
// response carries one.
func (s *Server) handle(req *wire.Request) *wire.Response {
	start := time.Now()
	s.met.inflight.Add(1)
	resp := s.dispatch(req)
	s.met.inflight.Add(-1)
	s.met.opCounter(req.Op).Inc()
	s.met.handleSeconds.Since(start)
	if resp.Err != "" {
		s.met.opErrors.Inc()
	}
	return resp
}

func (s *Server) dispatch(req *wire.Request) *wire.Response {
	switch req.Op {
	case wire.OpJoin:
		return s.handleJoin(req)
	case wire.OpRing:
		s.mu.Lock()
		ring := append([]wire.NodeInfo(nil), s.ring...)
		s.mu.Unlock()
		return &wire.Response{OK: true, Ring: ring}
	case wire.OpAdd:
		s.handleAdd(req.Node)
		return &wire.Response{OK: true}
	case wire.OpPing:
		return &wire.Response{OK: true, Data: s.exchangeGossip(req.Data)}
	case wire.OpPingReq:
		return s.handlePingReq(req)
	case wire.OpGossip:
		return &wire.Response{OK: true, Data: s.exchangeGossip(req.Data)}
	case wire.OpCapBatch:
		// One answer for every block name the client grouped onto this
		// owner: the free-space advertisement of §4.3.
		s.mu.Lock()
		free := s.capacity - s.used
		s.mu.Unlock()
		if free < 0 {
			free = 0
		}
		return &wire.Response{OK: true, Capacity: free}
	case wire.OpStore:
		if len(req.Parts) > 0 {
			return s.storeGroup(req)
		}
		// The block keeps req.Data where it lies, and its frame with it.
		s.mu.Lock()
		defer s.mu.Unlock()
		size := int64(len(req.Data))
		if !s.fitsLocked(req.Name, size) {
			return noSpace
		}
		held, ok := s.holdLocked(req, 1)
		if !ok {
			return noSpace
		}
		s.putLocked(req.Name, storedBlock{data: req.Data, size: size, held: held})
		return okResp
	case wire.OpStoreWindow:
		return s.handleStoreWindow(req)
	case wire.OpFetch:
		if len(req.Parts) > 0 {
			return s.fetchGroup(req)
		}
		// A plain fetch is the group of one part asking for the whole
		// block Name (refused past one frame), answered in Data.
		req.Parts = append(req.Parts, wire.Part{Len: maxSingleFrameBlock + 1})
		resp := s.fetchGroup(req)
		switch {
		case !resp.OK:
		case req.Parts[0].Absent:
			return noBlock(req.Name)
		default:
			resp.Parts, resp.Data = nil, req.Parts[0].Data
		}
		return resp
	case wire.OpDelete:
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(req.Parts) == 0 {
			s.deleteLocked(req.Name)
		}
		var kb keyBuf
		for _, p := range req.Parts {
			s.deleteLocked(string(kb.key(req.Name, p.Key)))
		}
		return okResp
	case wire.OpStat:
		// The extended status (member states, repair queue) rides Data
		// as JSON, outside the frame layout.
		ext := s.statExtJSON()
		s.mu.Lock()
		defer s.mu.Unlock()
		return &wire.Response{OK: true, Capacity: s.capacity, Used: s.used, Blocks: len(s.blocks), Data: ext}
	default:
		return &wire.Response{Err: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// okResp is the plain acceptance: handlers may return a shared
// response, so an accepted store or delete allocates none.
var okResp = &wire.Response{OK: true}

// noSpace refuses a store past the node's capacity, or past the frame
// memory its blocks may keep (see frameBudget).
var noSpace = &wire.Response{Err: "no space"}

// noBlock is the refusal for a block this node does not hold — the
// answer a load of an unstored name, a degraded read and a repair scan
// get — built with strconv into a stack buffer, not fmt: the text is
// fmt.Sprintf("no block %q", name) at one allocation. Absent is what
// the client reads; the text is for people.
func noBlock(name string) *wire.Response {
	var buf [128]byte
	return &wire.Response{Absent: true, Err: string(strconv.AppendQuote(append(buf[:0], "no block "...), name))}
}

// keyBuf builds a group member's block name, prefix plus key, in a
// buffer of its own: a map index on string(b) takes no copy, so a fetch
// group looks its blocks up without a string per block. Only a block
// that is stored or deleted becomes a string.
type keyBuf struct{ b [256]byte }

func (k *keyBuf) key(prefix string, key []byte) []byte {
	return append(append(k.b[:0], prefix...), key...)
}

// deleteLocked removes one block, if held.
func (s *Server) deleteLocked(name string) {
	if b, ok := s.blocks[name]; ok {
		delete(s.blocks, name)
		s.used -= b.size
		s.dropFrameLocked(b.held)
	}
}

// fitsLocked reports whether a block of size bytes stored as name —
// replacing the block of that name, if held — stays inside capacity.
func (s *Server) fitsLocked(name string, size int64) bool {
	return s.used+size-s.blocks[name].size <= s.capacity
}

// putLocked stores b as name, replacing the block of that name, if
// held. In discard mode it keeps the size alone.
func (s *Server) putLocked(name string, b storedBlock) {
	if s.discard {
		b.data = nil
	}
	s.deleteLocked(name)
	s.blocks[name] = b
	s.used += b.size
}

// holdLocked retains req's receive frame for the n blocks about to be
// stored from it. It returns nil when they keep none — in discard mode,
// or when no frame holds the request's bytes: it had none, or it was
// not read off a connection — and refuses (false), retaining nothing,
// when the frame would take the frames blocks keep past frameBudget.
func (s *Server) holdLocked(req *wire.Request, n int) (*heldFrame, bool) {
	if s.discard {
		return nil, true
	}
	f := req.Retain()
	if f == (wire.Frame{}) {
		return nil, true
	}
	if s.frameBytes+int64(f.Cap()) > s.frameBudget() {
		f.Release()
		return nil, false
	}
	s.frameBytes += int64(f.Cap())
	return &heldFrame{frame: f, blocks: n}, true
}

// frameBudget bounds the frame capacity stored blocks keep, so a node
// gives its donor's memory no more than it advertised, whatever the
// sizes of the blocks it is sent: twice capacity, as a size class
// keeps a large frame under twice its bytes, plus one segment for the
// header slack that rounds small frames up. Each small block keeps a
// frame of at least that slack — a 1-byte block over 4 KiB — so without
// a budget a client storing tiny blocks could make a node hold
// thousands of times its capacity while used stays small.
func (s *Server) frameBudget() int64 {
	return 2*s.capacity + wire.DefaultSegment
}

// dropFrameLocked lets a deleted or overwritten block's frame go: the
// last block viewing it releases it. A fetch answer still being written
// from it holds its own pin (wire.Part.Hold).
func (s *Server) dropFrameLocked(h *heldFrame) {
	if h == nil {
		return
	}
	if h.blocks--; h.blocks == 0 {
		s.frameBytes -= int64(h.frame.Cap())
		h.frame.Release()
	}
}

// storeGroup serves a store group (see wire.Part): the group is checked
// against capacity and the frame budget as a whole and commits under
// one lock, or is refused whole — a full node or a name twice in one
// group leaves used, the block map and every frame's references as
// they were. Each block keeps its bytes where they lie, in the receive
// frame, which the group's blocks hold together: nothing is copied, and
// the lock covers bookkeeping only.
func (s *Server) storeGroup(req *wire.Request) *wire.Response {
	if dup := duplicateKey(req.Parts); dup >= 0 {
		return &wire.Response{Err: fmt.Sprintf("block %q twice in one group", req.Name+string(req.Parts[dup].Key))}
	}
	names := make([]string, len(req.Parts))
	for i, p := range req.Parts {
		names[i] = req.Name + string(p.Key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var delta int64
	for i, name := range names {
		delta += int64(len(req.Parts[i].Data)) - s.blocks[name].size
	}
	if s.used+delta > s.capacity {
		return noSpace
	}
	held, ok := s.holdLocked(req, len(names))
	if !ok {
		return noSpace
	}
	for i, name := range names {
		data := req.Parts[i].Data
		s.putLocked(name, storedBlock{data: data, size: int64(len(data)), held: held})
	}
	return okResp
}

// duplicateKey returns the index of a part whose key an earlier part of
// the group already carries, or -1. A chunk's groups are a few dozen
// blocks, compared pairwise; a larger group pays for a set.
func duplicateKey(parts []wire.Part) int {
	if len(parts) <= 32 {
		for i := 1; i < len(parts); i++ {
			for j := 0; j < i; j++ {
				if bytes.Equal(parts[i].Key, parts[j].Key) {
					return i
				}
			}
		}
		return -1
	}
	seen := make(map[string]struct{}, len(parts))
	for i, p := range parts {
		if _, dup := seen[string(p.Key)]; dup {
			return i
		}
		seen[string(p.Key)] = struct{}{}
	}
	return -1
}

// fetchGroup serves a fetch group (see wire.Part): every part is
// answered in request order with bytes [Off, min(Off+Len, size)) of its
// block — written to the connection from the block itself, not copied,
// with the block's frame held until it is written — or marked absent. A
// part whose range starts past its block's end refuses the group whole,
// as does an answer that would not fit one frame, which the client
// never asks for. The answers take the parts' places in req.Parts,
// which the connection keeps until the response is written.
func (s *Server) fetchGroup(req *wire.Request) *wire.Response {
	s.fetchOps.Add(int64(len(req.Parts)))
	var kb keyBuf
	total := int64(0)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range req.Parts {
		p := &req.Parts[i]
		name := kb.key(req.Name, p.Key)
		b, ok := s.blocks[string(name)]
		if !ok {
			*p = wire.Part{Absent: true}
			continue
		}
		data, size := b.data, b.size
		if p.Off < 0 || p.Off > size || p.Len < 0 {
			return &wire.Response{Err: fmt.Sprintf("range of %d bytes at %d outside block %q of %d bytes", p.Len, p.Off, name, size)}
		}
		// Slice the bytes held, which in discard mode are none whatever
		// the logical size.
		lo := min(p.Off, int64(len(data)))
		hi := lo + min(p.Len, int64(len(data))-lo)
		*p = wire.Part{Data: data[lo:hi]}
		if b.held != nil && hi > lo {
			// A delete may let the frame go before Serve has written
			// the answer; the pin keeps it from carrying another
			// message meanwhile.
			p.Hold(b.held.frame)
		}
		total += hi - lo
	}
	if total > maxSingleFrameBlock {
		return &wire.Response{Err: fmt.Sprintf("group of %d parts is %d bytes, too large for one frame", len(req.Parts), total)}
	}
	return &wire.Response{OK: true, Parts: req.Parts}
}

// maxSingleFrameBlock is the most block bytes one response carries; the
// margin leaves room for the frame's own fields.
const maxSingleFrameBlock = wire.MaxFrame - 4096

// reapStaleStagesLocked reclaims staging buffers of crashed clients
// and expires the committed-stream re-ack entries. Called on every
// streaming request so the maps cannot grow unbounded.
func (s *Server) reapStaleStagesLocked(now time.Time) {
	for id, st := range s.stages {
		if now.Sub(st.touched) > streamStaleAfter {
			delete(s.stages, id)
		}
	}
	for id, when := range s.committed {
		if now.Sub(when) > streamStaleAfter {
			delete(s.committed, id)
		}
	}
}

// handleStoreWindow serves one windowed upload segment: the fixed
// segment size pins each seq to byte offset seq*seg, so segments are
// copied out of their receive frames straight into a pre-sized staging
// buffer in whatever order the client's window delivers them. The
// first segment to arrive — not necessarily seq 0 — opens the stage
// after an early capacity check; the one completing the bitmap commits
// the block. Acks carry the bytes staged so far in Capacity, the
// flow-control signal windowed senders advance on.
func (s *Server) handleStoreWindow(req *wire.Request) *wire.Response {
	s.windowOps.Add(1)
	seg, err := wire.ParseStoreWindow(req)
	if err != nil {
		return &wire.Response{Err: err.Error()}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	s.reapStaleStagesLocked(now)
	st := s.stages[seg.Stream]
	if st == nil {
		// The pooled transport retries a request exactly once when its
		// connection dies under it; a retried segment whose ack was
		// lost can arrive after the stage committed. Re-acknowledge.
		if _, done := s.committed[seg.Stream]; done {
			return &wire.Response{OK: true, Capacity: seg.Size}
		}
		if len(s.stages) >= maxStagedStreams {
			return &wire.Response{Err: "too many concurrent streams"}
		}
		// Refuse early what the commit would refuse anyway, before the
		// client ships the remaining segments.
		if !s.fitsLocked(req.Name, seg.Size) {
			return noSpace
		}
		st = &storeStage{
			name: req.Name, total: seg.Total, size: seg.Size,
			seg: seg.Seg, have: make([]bool, seg.Total),
		}
		if !s.discard {
			st.buf = make([]byte, seg.Size)
		}
		s.stages[seg.Stream] = st
	}
	if st.name != req.Name || st.total != seg.Total || st.size != seg.Size || st.seg != seg.Seg {
		delete(s.stages, seg.Stream)
		return &wire.Response{Err: fmt.Sprintf("stream %d: inconsistent segment %d", seg.Stream, seg.Seq)}
	}
	if st.have[seg.Seq] {
		// Duplicate of an applied segment — its ack was lost and the
		// transport retried. Re-acknowledge without placing.
		st.touched = now
		return &wire.Response{OK: true, Capacity: st.got}
	}
	lo := int64(seg.Seq) * seg.Seg
	hi := lo + seg.Seg
	if hi > st.size {
		hi = st.size
	}
	if int64(len(req.Data)) != hi-lo {
		delete(s.stages, seg.Stream)
		return &wire.Response{Err: fmt.Sprintf("stream %d: segment %d carries %d bytes, want %d", seg.Stream, seg.Seq, len(req.Data), hi-lo)}
	}
	if !s.discard {
		copy(st.buf[lo:hi], req.Data)
	}
	st.have[seg.Seq] = true
	st.got += hi - lo
	st.touched = now
	if st.got < st.size {
		return &wire.Response{OK: true, Capacity: st.got}
	}
	delete(s.stages, seg.Stream)
	if !s.fitsLocked(st.name, st.size) {
		return noSpace
	}
	// The block keeps its staging buffer: the segments' frames went
	// back to the pools as each was copied in.
	s.putLocked(st.name, storedBlock{data: st.buf, size: st.size})
	s.committed[seg.Stream] = now
	return &wire.Response{OK: true, Capacity: st.size}
}

// handleJoin registers a new member, replies with the full ring, and
// broadcasts the addition to current members. A member that was
// declared dead and rejoins is resurrected with a bumped incarnation,
// so the join gossip overrides the lingering death rumor.
func (s *Server) handleJoin(req *wire.Request) *wire.Response {
	s.mu.Lock()
	peers := append([]wire.NodeInfo(nil), s.ring...)
	inc := uint64(0)
	if m := s.members[req.Node.ID]; m != nil && m.state != wire.StateAlive {
		inc = m.inc + 1
	}
	s.noteMemberLocked(wire.MemberUpdate{Node: req.Node, State: wire.StateAlive, Inc: inc})
	ring := append([]wire.NodeInfo(nil), s.ring...)
	self := s.selfInfoLocked()
	s.mu.Unlock()

	// The broadcasts outlive this handler, and req with it.
	add := &wire.Request{Op: wire.OpAdd, Node: req.Node}
	for _, p := range peers {
		if p.ID == self.ID || p.ID == req.Node.ID {
			continue
		}
		// Best effort: where the detector runs, a missed broadcast heals
		// through its gossip or its OpRing pull.
		s.goBackground(func() {
			s.pool.CallCtx(context.Background(), p.Addr, add, 0) //nolint:errcheck
		})
	}
	return &wire.Response{OK: true, Ring: ring}
}

// handleAdd applies one membership broadcast, resurrecting a known
// dead member (the broadcast means it just rejoined through a peer).
func (s *Server) handleAdd(n wire.NodeInfo) {
	s.mu.Lock()
	inc := uint64(0)
	if m := s.members[n.ID]; m != nil && m.state != wire.StateAlive {
		inc = m.inc + 1
	}
	_, death, _ := s.noteMemberLocked(wire.MemberUpdate{Node: n, State: wire.StateAlive, Inc: inc})
	s.mu.Unlock()
	s.afterApply(death, false)
}

func (s *Server) selfInfoLocked() wire.NodeInfo {
	if m := s.members[s.ID]; m != nil {
		return m.info
	}
	return wire.NodeInfo{ID: s.ID, Addr: s.advertise}
}

// OwnerOf returns the ring member numerically closest to key — the
// DHT mapping evaluated on a membership view.
func OwnerOf(ring []wire.NodeInfo, key ids.ID) (wire.NodeInfo, error) {
	if len(ring) == 0 {
		return wire.NodeInfo{}, errors.New("node: empty ring")
	}
	return ring[ownerAt(ring, key)], nil
}
