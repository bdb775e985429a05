// Package sim layers contributory storage state onto the Pastry overlay:
// per-node contributed capacity, a directory of stored blocks, the
// getCapacity probe with its local reporting policy (§4.3), failure
// injection, and the bookkeeping the evaluation harness reads (bytes
// stored, failed, lost, regenerated). On that pool runs the simulated
// PeerStripe store (Store): the §4.3 store procedure, availability and
// §4.4 repair accounting, and the Table 3 churn model (ChurnSim).
//
// Blocks are simulated by name and size only — the storage experiments
// of §6.1–§6.2 depend on placement and capacity arithmetic, not payload
// bytes. The byte-level data path is exercised by internal/erasure,
// internal/core's codec tests, and the live TCP implementation in
// internal/node.
package sim

import (
	"fmt"

	"peerstripe/internal/ids"
	"peerstripe/internal/pastry"
)

// StoreNode is one participant's storage state.
type StoreNode struct {
	Overlay *pastry.Node
	// Capacity is the contributed storage in bytes.
	Capacity int64
	// Used is the total size of blocks currently held.
	Used int64
	// ReportFraction is the node's getCapacity policy: the fraction of
	// free space it advertises (§4.3 — "a node may choose to only
	// report a fraction of its actual available capacity"). 1.0
	// reports everything, the setting used in §6.1.
	ReportFraction float64
	// Reserve is space withheld from getCapacity advertisements to
	// absorb a failed neighbor's blocks — the §4.4 alternative the
	// paper considered and rejected in favour of rateless
	// drop-and-recreate. Zero (the paper's choice) reserves nothing.
	Reserve int64
	// Blocks maps stored block name to size.
	Blocks map[string]int64
}

// Free returns the uncommitted capacity.
func (n *StoreNode) Free() int64 { return n.Capacity - n.Used }

// GetCapacity answers a getCapacity probe: the maximum block size this
// node is willing to store right now. Zero means full or unwilling. The
// space is reported, not reserved (§4.3).
func (n *StoreNode) GetCapacity() int64 {
	f := n.Free() - n.Reserve
	if f <= 0 {
		return 0
	}
	adv := int64(float64(f) * n.ReportFraction)
	if adv < 0 {
		adv = 0
	}
	return adv
}

// Store places a block if it fits. It reports whether the store
// succeeded; a false return models the getCapacity race of §4.3 (space
// consumed between probe and store) as well as plain overflow.
func (n *StoreNode) Store(name string, size int64) bool {
	if size < 0 {
		return false
	}
	if old, dup := n.Blocks[name]; dup {
		// Overwrite: same key re-stored (e.g. updated CAT replica).
		if n.Used-old+size > n.Capacity {
			return false
		}
		n.Used += size - old
		n.Blocks[name] = size
		return true
	}
	if n.Used+size > n.Capacity {
		return false
	}
	n.Used += size
	n.Blocks[name] = size
	return true
}

// Delete removes a block if present and returns its size.
func (n *StoreNode) Delete(name string) (int64, bool) {
	size, ok := n.Blocks[name]
	if !ok {
		return 0, false
	}
	delete(n.Blocks, name)
	n.Used -= size
	return size, true
}

// Has reports whether the node holds the named block.
func (n *StoreNode) Has(name string) bool {
	_, ok := n.Blocks[name]
	return ok
}

// Pool is the shared storage facility: the overlay plus every node's
// storage state.
type Pool struct {
	Net   *pastry.Network
	nodes map[ids.ID]*StoreNode

	// TotalCapacity is the sum of live nodes' contributions.
	TotalCapacity int64
	// TotalUsed is the sum of live nodes' Used.
	TotalUsed int64
	// LookupHops counts overlay hops spent on lookUp messages.
	LookupHops int64
	// Lookups counts lookUp messages issued.
	Lookups int64

	// observer receives content-change callbacks (see NeighborTracker).
	observer observer
}

// NewPool builds a pool of len(capacities) nodes with random nodeIds on
// a fresh overlay.
func NewPool(seed int64, capacities []int64) *Pool {
	net := pastry.NewNetwork(seed)
	p := &Pool{Net: net, nodes: make(map[ids.ID]*StoreNode, len(capacities))}
	for _, c := range capacities {
		on := net.JoinRandom(1)[0]
		p.nodes[on.ID] = &StoreNode{
			Overlay:        on,
			Capacity:       c,
			ReportFraction: 1.0,
			Blocks:         make(map[string]int64),
		}
		p.TotalCapacity += c
	}
	return p
}

// Size returns the number of live nodes.
func (p *Pool) Size() int { return p.Net.Size() }

// Node returns the storage state of the live node with the given ID.
func (p *Pool) Node(id ids.ID) (*StoreNode, bool) {
	n, ok := p.nodes[id]
	return n, ok
}

// Nodes calls fn for every live node.
func (p *Pool) Nodes(fn func(*StoreNode)) {
	for _, on := range p.Net.Nodes() {
		fn(p.nodes[on.ID])
	}
}

// SetReportFraction applies a getCapacity reporting policy pool-wide.
func (p *Pool) SetReportFraction(f float64) {
	p.Nodes(func(n *StoreNode) { n.ReportFraction = f })
}

// RecomputeNeighborReserves sets every node's Reserve to half the bytes
// currently held by each of its two immediate identifier-space
// neighbors (the share it would inherit if that neighbor failed, §4.4).
// Call periodically while studying the reservation policy; the paper
// rejects it because it strands capacity — the ablation in psbench
// quantifies how much.
func (p *Pool) RecomputeNeighborReserves() {
	for _, on := range p.Net.Nodes() {
		n := p.nodes[on.ID]
		var reserve int64
		for _, nb := range p.Net.Neighbors(on.ID, 2) {
			if s, ok := p.nodes[nb.ID]; ok {
				reserve += s.Used / 2
			}
		}
		n.Reserve = reserve
	}
}

// ClearReserves removes all neighbor reservations.
func (p *Pool) ClearReserves() {
	p.Nodes(func(n *StoreNode) { n.Reserve = 0 })
}

// Lookup routes the block name's key through the overlay and returns
// the responsible node (Figure 2: lookUp + acknowledgment). The actual
// data transfer then happens directly over IP, outside the overlay.
func (p *Pool) Lookup(name string) *StoreNode {
	key := ids.FromName(name)
	owner, hops := p.Net.Route(key)
	p.LookupHops += int64(hops)
	p.Lookups++
	if owner == nil {
		return nil
	}
	return p.nodes[owner.ID]
}

// OwnerOf returns the node currently responsible for the name without
// routing (zero-cost ground truth for verification and repair logic).
func (p *Pool) OwnerOf(name string) *StoreNode {
	owner := p.Net.Owner(ids.FromName(name))
	if owner == nil {
		return nil
	}
	return p.nodes[owner.ID]
}

// StoreBlock routes name and stores size bytes at the responsible node.
// It returns the storing node, or nil if the node refused (full).
func (p *Pool) StoreBlock(name string, size int64) *StoreNode {
	n := p.Lookup(name)
	if n == nil || !n.Store(name, size) {
		return nil
	}
	p.TotalUsed += size
	if p.observer != nil {
		p.observer.recordStore(n.Overlay.ID, name, size)
	}
	return n
}

// DeleteBlock removes the named block from its current owner, if stored.
func (p *Pool) DeleteBlock(name string) bool {
	n := p.OwnerOf(name)
	if n == nil {
		return false
	}
	size, ok := n.Delete(name)
	if ok {
		p.TotalUsed -= size
		if p.observer != nil {
			p.observer.recordDelete(n.Overlay.ID, name)
		}
	}
	return ok
}

// Utilization returns TotalUsed / TotalCapacity over live nodes.
func (p *Pool) Utilization() float64 {
	if p.TotalCapacity == 0 {
		return 0
	}
	return float64(p.TotalUsed) / float64(p.TotalCapacity)
}

// Fail removes a node from the overlay. Its blocks are lost (returned
// for the caller's loss/regeneration accounting) and its capacity
// leaves the pool.
func (p *Pool) Fail(id ids.ID) (lost map[string]int64, err error) {
	n, ok := p.nodes[id]
	if !ok {
		return nil, fmt.Errorf("sim: fail: unknown node %s", id.Short())
	}
	if !p.Net.Fail(id) {
		return nil, fmt.Errorf("sim: fail: node %s not alive", id.Short())
	}
	delete(p.nodes, id)
	p.TotalCapacity -= n.Capacity
	p.TotalUsed -= n.Used
	return n.Blocks, nil
}

// MeanLookupHops reports the average overlay hops per lookUp message.
func (p *Pool) MeanLookupHops() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.LookupHops) / float64(p.Lookups)
}
