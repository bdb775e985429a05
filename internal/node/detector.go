package node

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"peerstripe/internal/ids"
	"peerstripe/internal/wire"
)

// SWIM-style failure detection (detector) and membership bookkeeping
// (the member table on Server).
//
// Each node periodically direct-probes one random member (OpPing over
// the pooled transport). A failed direct probe is retried indirectly:
// k other members are asked (OpPingReq) to probe the target on the
// prober's behalf, so one flaky or asymmetric link cannot condemn a
// healthy node. Only when the direct and every indirect probe fail is
// the target marked suspect — and a suspect stays in the placement
// ring until its suspicion window expires, at which point the death
// commits and repair begins.
//
// Membership deltas (join / suspect / dead / alive-refutation)
// piggyback on probe traffic and fan out epidemically (OpGossip).
// Per-member incarnation numbers order conflicting claims: only the
// member itself bumps its incarnation, when refuting a suspicion, so
// a falsely suspected node that is still reachable always wins.

// DetectorConfig tunes the failure detector. Zero fields take the
// defaults noted on each; see docs/RING.md for how they trade
// detection latency against false-positive robustness.
type DetectorConfig struct {
	// ProbeInterval is the gap between probe rounds (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one direct or indirect probe (default 500ms).
	ProbeTimeout time.Duration
	// IndirectProbes is k, the number of peers asked to probe a target
	// that failed its direct probe (default 3).
	IndirectProbes int
	// SuspicionTimeout is how long a suspect may refute before its
	// death commits (default 4s).
	SuspicionTimeout time.Duration
	// GossipFanout is how many random members urgent updates (deaths,
	// refutations, fresh suspicions) are pushed to immediately, ahead
	// of the piggyback schedule (default 3).
	GossipFanout int
	// Seed fixes the probe-order randomness for deterministic tests;
	// 0 derives a per-node seed from the ring identifier.
	Seed int64
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.IndirectProbes <= 0 {
		c.IndirectProbes = 3
	}
	if c.SuspicionTimeout <= 0 {
		c.SuspicionTimeout = 4 * time.Second
	}
	if c.GossipFanout <= 0 {
		c.GossipFanout = 3
	}
	return c
}

// antiEntropyEvery is how many probe rounds pass between OpRing
// anti-entropy pulls (see antiEntropy).
const antiEntropyEvery = 8

// member is one row of a node's membership table.
type member struct {
	info  wire.NodeInfo
	state wire.MemberState
	inc   uint64
	since time.Time // when the current state was applied (suspicion window)
}

// gossipEntry is one delta awaiting epidemic retransmission.
type gossipEntry struct {
	up   wire.MemberUpdate
	left int // remaining piggyback transmissions
}

// deathEvent captures a committed death together with the placement
// view that still contained the dead member — the view repair needs to
// locate the blocks that died with it.
type deathEvent struct {
	node     wire.NodeInfo
	prevRing []wire.NodeInfo
}

// gossipRetransmit is the per-delta piggyback budget: ~3·log2(n)+2
// transmissions spread a rumor through n members with high
// probability.
func gossipRetransmit(n int) int {
	if n < 2 {
		n = 2
	}
	return 3*int(math.Log2(float64(n))) + 2
}

// rebuildRingLocked recomputes the placement view: alive and suspect
// members, sorted by ID. Suspects stay in placement — one flaky link
// must not move data; only a committed death does.
func (s *Server) rebuildRingLocked() {
	ring := make([]wire.NodeInfo, 0, len(s.members))
	for _, m := range s.members {
		if m.state != wire.StateDead {
			ring = append(ring, m.info)
		}
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].ID.Less(ring[j].ID) })
	s.ring = ring
}

// noteMemberLocked applies one membership claim under the SWIM
// precedence rules and reports whether it changed the view, the death
// event when a death committed, and whether it was a claim about this
// node that was refuted (caller should push the refutation urgently).
//
// Precedence (m = current row): alive{i} applies iff i > m.inc;
// suspect{i} applies iff (alive && i ≥ m.inc) or (suspect && i > m.inc);
// dead{i} applies iff not dead && i ≥ m.inc. Only the member itself
// increments its incarnation, so alive at a higher incarnation — a
// refutation or a rejoin — overrides any stale suspicion or death.
func (s *Server) noteMemberLocked(up wire.MemberUpdate) (applied bool, death *deathEvent, refuted bool) {
	if up.Node.ID == s.ID {
		self := s.members[s.ID]
		switch up.State {
		case wire.StateAlive:
			// Echo of our own refutation (or a peer-assisted rejoin bump):
			// adopt the higher incarnation so we never refute below it.
			if up.Inc > s.incarnation {
				s.incarnation = up.Inc
				self.inc = up.Inc
			}
		default:
			// Someone thinks we are suspect or dead. We are demonstrably
			// not: refute with a higher incarnation.
			if up.Inc >= s.incarnation {
				s.incarnation = up.Inc + 1
				self.inc = s.incarnation
				s.met.refutations.Inc()
				s.enqueueGossipLocked(wire.MemberUpdate{Node: self.info, State: wire.StateAlive, Inc: s.incarnation})
				return false, nil, true
			}
		}
		return false, nil, false
	}

	m := s.members[up.Node.ID]
	if m == nil {
		// First mention of this member. Deaths are remembered too:
		// otherwise the next anti-entropy pull from a peer that still
		// lists the member would resurrect it.
		m = &member{info: up.Node, state: up.State, inc: up.Inc, since: time.Now()}
		s.members[up.Node.ID] = m
		if up.State != wire.StateDead {
			s.rebuildRingLocked()
		}
		s.enqueueGossipLocked(up)
		return true, nil, false
	}

	ok := false
	switch up.State {
	case wire.StateAlive:
		ok = up.Inc > m.inc
	case wire.StateSuspect:
		ok = (m.state == wire.StateAlive && up.Inc >= m.inc) ||
			(m.state == wire.StateSuspect && up.Inc > m.inc)
	case wire.StateDead:
		ok = m.state != wire.StateDead && up.Inc >= m.inc
	}
	if !ok {
		if up.State == wire.StateDead && m.state == wire.StateDead && up.Inc > m.inc {
			m.inc = up.Inc // refresh the rumor's incarnation; no new event
		}
		return false, nil, false
	}
	if up.State == wire.StateDead {
		// s.ring still contains the member (it was alive or suspect);
		// that pre-death view is what repair scans against.
		death = &deathEvent{node: m.info, prevRing: append([]wire.NodeInfo(nil), s.ring...)}
	}
	m.state = up.State
	m.inc = up.Inc
	m.since = time.Now()
	if up.Node.Addr != "" {
		m.info.Addr = up.Node.Addr
	}
	s.rebuildRingLocked()
	// Re-broadcast what was applied, with our canonical address.
	s.enqueueGossipLocked(wire.MemberUpdate{Node: m.info, State: m.state, Inc: m.inc})
	return true, death, false
}

// enqueueGossipLocked schedules one delta for piggyback dissemination,
// superseding any queued claim about the same member.
func (s *Server) enqueueGossipLocked(up wire.MemberUpdate) {
	e := gossipEntry{up: up, left: gossipRetransmit(len(s.members))}
	for i := range s.gossipQ {
		if s.gossipQ[i].up.Node.ID == up.Node.ID {
			s.gossipQ[i] = e
			return
		}
	}
	s.gossipQ = append(s.gossipQ, e)
}

// takeGossipLocked returns one batch of queued deltas, charging each
// entry's retransmission budget and dropping exhausted entries.
func (s *Server) takeGossipLocked() []wire.MemberUpdate {
	if len(s.gossipQ) == 0 {
		return nil
	}
	ups := make([]wire.MemberUpdate, 0, len(s.gossipQ))
	kept := s.gossipQ[:0]
	for _, e := range s.gossipQ {
		if len(ups) < wire.MaxGossipUpdates {
			ups = append(ups, e.up)
			e.left--
		}
		if e.left > 0 {
			kept = append(kept, e)
		}
	}
	s.gossipQ = kept
	return ups
}

// gossipPayload drains one piggyback batch (plus any extra claims the
// caller wants carried regardless of queue state) into wire form.
func (s *Server) gossipPayload(extra ...wire.MemberUpdate) []byte {
	s.mu.Lock()
	ups := s.takeGossipLocked()
	s.mu.Unlock()
	return wire.EncodeUpdates(append(ups, extra...))
}

// exchangeGossip is the receiving half of a probe or gossip push:
// apply the peer's piggybacked deltas, answer with ours. A malformed
// batch is dropped — the exchange still answers, so a buggy peer
// degrades to a plain liveness probe.
func (s *Server) exchangeGossip(data []byte) []byte {
	if ups, err := wire.DecodeUpdates(data); err == nil {
		s.applyUpdates(ups)
	}
	return s.gossipPayload()
}

// applyUpdates applies a batch of received deltas and runs the
// follow-ups outside the lock: repair enqueue for committed deaths,
// urgent fanout for deaths and refutations.
func (s *Server) applyUpdates(ups []wire.MemberUpdate) {
	if len(ups) == 0 {
		return
	}
	var deaths []*deathEvent
	urgent := false
	s.mu.Lock()
	for _, up := range ups {
		_, death, refuted := s.noteMemberLocked(up)
		if death != nil {
			deaths = append(deaths, death)
		}
		urgent = urgent || refuted
	}
	s.mu.Unlock()
	for _, d := range deaths {
		s.afterApply(d, false)
	}
	if urgent {
		s.afterApply(nil, true)
	}
}

// afterApply runs the out-of-lock consequences of applied updates:
// a committed death feeds the repair daemon and, like a refutation, is
// pushed to a random fanout immediately rather than waiting for the
// piggyback schedule.
func (s *Server) afterApply(death *deathEvent, urgent bool) {
	if death != nil {
		s.met.deaths.Inc()
		if s.rep != nil {
			s.rep.noteDeath(death)
		}
		urgent = true
	}
	if urgent {
		s.pushGossip()
	}
}

// pushGossip sends the queued deltas to a few random live members now.
// Best effort: anything missed still spreads via piggyback.
func (s *Server) pushGossip() {
	fanout := 3
	timeout := 500 * time.Millisecond
	if s.det != nil {
		fanout = s.det.cfg.GossipFanout
		timeout = s.det.cfg.ProbeTimeout
	}
	peers := s.randomPeers(fanout, wire.StateAlive, ids.ID{})
	if len(peers) == 0 {
		return
	}
	payload := s.gossipPayload()
	if payload == nil {
		return
	}
	for _, p := range peers {
		if !s.goBackground(func() {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			resp, err := s.pool.CallCtx(ctx, p.Addr, &wire.Request{Op: wire.OpGossip, Data: payload}, timeout)
			if err == nil && resp != nil {
				ups, derr := wire.DecodeUpdates(resp.Data)
				resp.Release()
				if derr == nil {
					s.applyUpdates(ups)
				}
			}
		}) {
			return
		}
	}
}

// goBackground runs fn on the server's waitgroup unless the server is
// closing; reports whether it was started.
func (s *Server) goBackground(fn func()) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		fn()
	}()
	return true
}

// randomPeers picks up to n members other than self and skip whose
// state is at most maxState (alive only, or alive+suspect).
func (s *Server) randomPeers(n int, maxState wire.MemberState, skip ids.ID) []wire.NodeInfo {
	s.mu.Lock()
	cand := make([]wire.NodeInfo, 0, len(s.members))
	for _, m := range s.members {
		if m.info.ID == s.ID || m.info.ID == skip || m.state > maxState {
			continue
		}
		cand = append(cand, m.info)
	}
	s.mu.Unlock()
	rand.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	if len(cand) > n {
		cand = cand[:n]
	}
	return cand
}

// applyAliveInfos merges a full-ring snapshot (OpJoin reply, OpRing
// anti-entropy pull) into the member table. Snapshots carry no
// incarnations, so they only ever introduce members we have never
// heard of — a member known dead stays dead; resurrection requires a
// higher-incarnation alive claim (refutation or rejoin).
func (s *Server) applyAliveInfos(infos []wire.NodeInfo) {
	s.mu.Lock()
	changed := false
	for _, n := range infos {
		if n.ID == s.ID || n.Addr == "" {
			continue
		}
		if s.members[n.ID] == nil {
			s.members[n.ID] = &member{info: n, state: wire.StateAlive, since: time.Now()}
			changed = true
		}
	}
	if changed {
		s.rebuildRingLocked()
	}
	s.mu.Unlock()
}

// handlePingReq serves one indirect probe: probe req.Node on the
// requester's behalf and relay the verdict. The target address is
// resolved from this node's own view first — the requester's route to
// the target may be broken in a way ours is not (asymmetric
// partition), and our view may hold a fresher address.
func (s *Server) handlePingReq(req *wire.Request) *wire.Response {
	gossip := s.exchangeGossip(req.Data)
	target := req.Node
	timeout := 500 * time.Millisecond
	if s.det != nil {
		timeout = s.det.cfg.ProbeTimeout
	}
	s.mu.Lock()
	if m := s.members[target.ID]; m != nil && m.info.Addr != "" {
		target = m.info
	}
	s.mu.Unlock()
	if target.Addr == "" {
		return &wire.Response{Err: "pingreq: no address for target", Data: gossip}
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	resp, err := s.pool.CallCtx(ctx, target.Addr, &wire.Request{Op: wire.OpPing}, timeout)
	if err != nil {
		return &wire.Response{Err: fmt.Sprintf("pingreq: probe %s: %v", target.Addr, err), Data: gossip}
	}
	resp.Release()
	return &wire.Response{OK: true, Data: gossip}
}

// statExt is the extended node status carried as JSON in the OpStat
// response's Data field.
type statExt struct {
	Alive       int    `json:"alive"`
	Suspect     int    `json:"suspect"`
	Dead        int    `json:"dead"`
	Incarnation uint64 `json:"incarnation"`
	RepairQueue int    `json:"repairQueue"`
}

func (s *Server) statExtJSON() []byte {
	var ext statExt
	s.mu.Lock()
	for _, m := range s.members {
		switch m.state {
		case wire.StateAlive:
			ext.Alive++
		case wire.StateSuspect:
			ext.Suspect++
		case wire.StateDead:
			ext.Dead++
		}
	}
	ext.Incarnation = s.incarnation
	s.mu.Unlock()
	if s.rep != nil {
		ext.RepairQueue = s.rep.queueDepth()
	}
	b, _ := json.Marshal(ext)
	return b
}

// Members returns a snapshot of the node's membership view, sorted by
// ID, with each member's state and incarnation.
func (s *Server) Members() []wire.MemberUpdate {
	s.mu.Lock()
	out := make([]wire.MemberUpdate, 0, len(s.members))
	for _, m := range s.members {
		out = append(out, wire.MemberUpdate{Node: m.info, State: m.state, Inc: m.inc})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node.ID.Less(out[j].Node.ID) })
	return out
}

// MemberState reports this node's view of one member.
func (s *Server) MemberState(id ids.ID) (wire.MemberState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == s.ID {
		return wire.StateAlive, true
	}
	m := s.members[id]
	if m == nil {
		return 0, false
	}
	return m.state, true
}

// Incarnation returns the node's own incarnation number; it rises only
// when the node refutes a suspicion about itself.
func (s *Server) Incarnation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.incarnation
}

// detector runs the probe loop for one server.
type detector struct {
	s   *Server
	cfg DetectorConfig
	met detectorMetrics
	rng *rand.Rand // probe-order randomness; loop goroutine only
}

func newDetector(s *Server, cfg DetectorConfig) *detector {
	d := &detector{s: s, cfg: cfg.withDefaults(), met: newDetectorMetrics(s.reg)}
	seed := d.cfg.Seed
	if seed == 0 {
		seed = int64(binary.BigEndian.Uint64(s.ID[:8]))
	}
	d.rng = rand.New(rand.NewSource(seed))
	s.wg.Add(1)
	go d.loop()
	return d
}

func (d *detector) loop() {
	defer d.s.wg.Done()
	t := time.NewTicker(d.cfg.ProbeInterval)
	defer t.Stop()
	for round := 1; ; round++ {
		select {
		case <-d.s.stop:
			return
		case <-t.C:
		}
		d.expireSuspects()
		d.probeOnce()
		if round%antiEntropyEvery == 0 {
			d.antiEntropy()
		}
	}
}

// expireSuspects commits the death of every suspect whose suspicion
// window has run out without a refutation.
func (d *detector) expireSuspects() {
	s := d.s
	now := time.Now()
	var deaths []*deathEvent
	s.mu.Lock()
	var expired []wire.MemberUpdate
	for _, m := range s.members {
		if m.state == wire.StateSuspect && now.Sub(m.since) >= d.cfg.SuspicionTimeout {
			expired = append(expired, wire.MemberUpdate{Node: m.info, State: wire.StateDead, Inc: m.inc})
		}
	}
	for _, up := range expired {
		if _, death, _ := s.noteMemberLocked(up); death != nil {
			deaths = append(deaths, death)
		}
	}
	s.mu.Unlock()
	for _, death := range deaths {
		s.afterApply(death, false)
	}
}

// probeOnce runs one SWIM round: direct-probe a random member; on
// failure ask k peers for indirect probes; only when all fail, mark
// the target suspect and spread the suspicion.
func (d *detector) probeOnce() {
	s := d.s
	target, susp, ok := d.pickTarget()
	if !ok {
		return
	}
	// When probing a suspect, carry the suspicion explicitly (its queue
	// budget may be spent): the target refutes it in this very exchange
	// and the ack brings the refutation home.
	var extra []wire.MemberUpdate
	if susp.State == wire.StateSuspect {
		extra = append(extra, susp)
	}
	if d.probe(target, extra) {
		d.confirmAlive(target.ID)
		return
	}
	for _, helper := range s.randomPeers(d.cfg.IndirectProbes, wire.StateAlive, target.ID) {
		if d.probeVia(helper, target) {
			d.confirmAlive(target.ID)
			return
		}
	}
	var deaths []*deathEvent
	urgent := false
	s.mu.Lock()
	if m := s.members[target.ID]; m != nil && m.state == wire.StateAlive {
		d.met.suspicions.Inc()
		_, death, _ := s.noteMemberLocked(wire.MemberUpdate{Node: m.info, State: wire.StateSuspect, Inc: m.inc})
		if death != nil {
			deaths = append(deaths, death)
		}
		urgent = true // spread the suspicion now so the target can refute in time
	}
	s.mu.Unlock()
	for _, death := range deaths {
		s.afterApply(death, false)
	}
	if urgent {
		s.afterApply(nil, true)
	}
}

// probe direct-probes target, applying any gossip that rides the ack.
// Reports whether the target proved alive.
func (d *detector) probe(target wire.NodeInfo, extra []wire.MemberUpdate) bool {
	s := d.s
	d.met.probes.Inc()
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), d.cfg.ProbeTimeout)
	defer cancel()
	req := &wire.Request{Op: wire.OpPing, Data: s.gossipPayload(extra...)}
	resp, err := s.pool.CallCtx(ctx, target.Addr, req, d.cfg.ProbeTimeout)
	d.met.probeSeconds.Since(start)
	if err != nil {
		d.met.probeFailures.Inc()
		return false
	}
	ups, derr := wire.DecodeUpdates(resp.Data)
	resp.Release()
	if derr == nil {
		s.applyUpdates(ups)
	}
	return true
}

// probeVia asks helper to probe target for us (OpPingReq). The target
// address rides Request.Node but the helper prefers its own view's
// address, which is what defeats asymmetric partitions.
func (d *detector) probeVia(helper, target wire.NodeInfo) bool {
	s := d.s
	// An indirect round trip spans two probe legs.
	timeout := 2 * d.cfg.ProbeTimeout
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req := &wire.Request{Op: wire.OpPingReq, Node: target, Data: s.gossipPayload()}
	resp, err := s.pool.CallCtx(ctx, helper.Addr, req, timeout)
	if resp != nil {
		ups, derr := wire.DecodeUpdates(resp.Data)
		resp.Release()
		if derr == nil {
			s.applyUpdates(ups)
		}
	}
	if err != nil {
		return false
	}
	return resp.OK
}

// pickTarget selects a random non-dead member to probe. Returns the
// member's current claim too, so a suspect's suspicion can ride the
// probe and be refuted in the ack.
func (d *detector) pickTarget() (wire.NodeInfo, wire.MemberUpdate, bool) {
	s := d.s
	s.mu.Lock()
	cand := make([]wire.MemberUpdate, 0, len(s.members))
	for _, m := range s.members {
		if m.info.ID != s.ID && m.state != wire.StateDead {
			cand = append(cand, wire.MemberUpdate{Node: m.info, State: m.state, Inc: m.inc})
		}
	}
	s.mu.Unlock()
	if len(cand) == 0 {
		return wire.NodeInfo{}, wire.MemberUpdate{}, false
	}
	pick := cand[d.rng.Intn(len(cand))]
	return pick.Node, pick, true
}

// confirmAlive clears a suspicion using direct evidence: the prober
// itself reached the target (or a helper did). This is local only —
// other members' views clear through the target's own refutation.
func (d *detector) confirmAlive(id ids.ID) {
	s := d.s
	s.mu.Lock()
	if m := s.members[id]; m != nil && m.state == wire.StateSuspect {
		m.state = wire.StateAlive
		m.since = time.Now()
		s.rebuildRingLocked()
	}
	s.mu.Unlock()
}

// antiEntropy pulls a full ring snapshot from one random non-dead
// member (OpRing). A join spreads as the seed's best-effort OpAdd
// broadcast and as gossip with a bounded retransmission budget, and
// neither is sure to reach every member: this pull is what makes every
// view converge on a join.
func (d *detector) antiEntropy() {
	s := d.s
	peers := s.randomPeers(1, wire.StateSuspect, ids.ID{})
	if len(peers) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), d.cfg.ProbeTimeout)
	defer cancel()
	resp, err := s.pool.CallCtx(ctx, peers[0].Addr, &wire.Request{Op: wire.OpRing}, d.cfg.ProbeTimeout)
	if err == nil && resp.OK {
		s.applyAliveInfos(resp.Ring)
	}
}
