package wire

import (
	"encoding/binary"
	"fmt"

	"peerstripe/internal/ids"
)

// Membership gossip payload (OpPing / OpPingReq / OpGossip).
//
// A node's failure detector disseminates membership deltas — joins,
// suspicions, deaths, and alive refutations — by piggybacking a small
// batch of MemberUpdate entries on its probe traffic (SWIM-style
// epidemic dissemination). The batch is encoded into Request.Data and
// Response.Data with the compact binary form below rather than new
// frame fields, so the frame codec carries it as opaque bytes and the
// encoding is versioned independently of the frame format.

// MemberState is one ring member's liveness state in a membership view.
type MemberState uint8

const (
	// StateAlive is a member answering probes (or refuting suspicion).
	StateAlive MemberState = iota
	// StateSuspect is a member that failed direct and indirect probes
	// but whose suspicion window has not yet expired. Suspects stay in
	// the placement ring: one flaky link must not move data.
	StateSuspect
	// StateDead is a committed failure: the suspicion window expired
	// without a refutation. Dead members leave the placement ring and
	// their loss triggers repair.
	StateDead
)

// String returns the state's lowercase name.
func (st MemberState) String() string {
	switch st {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", uint8(st))
	}
}

// MemberUpdate is one membership delta. Incarnation numbers order
// claims about the same member: only the member itself increments its
// incarnation (when refuting a suspicion), so an alive entry with a
// higher incarnation always overrides a stale suspicion or death.
type MemberUpdate struct {
	Node  NodeInfo
	State MemberState
	Inc   uint64
}

// Gossip payload bounds: a batch rides one frame alongside the probe
// itself, so it is kept small; the limits also cap what a malformed
// frame can make the decoder allocate.
const (
	// MaxGossipUpdates bounds entries per encoded batch.
	MaxGossipUpdates = 256
	// maxGossipAddr bounds one entry's address string.
	maxGossipAddr = 256
	// gossipVersion tags the encoding so it can evolve independently
	// of the frame format.
	gossipVersion = 1
)

// EncodeUpdates packs membership deltas into the byte form carried by
// Request.Data / Response.Data. Batches longer than MaxGossipUpdates
// are truncated (gossip is best-effort; the rest goes on a later
// probe). Returns nil for an empty batch.
func EncodeUpdates(ups []MemberUpdate) []byte {
	if len(ups) == 0 {
		return nil
	}
	if len(ups) > MaxGossipUpdates {
		ups = ups[:MaxGossipUpdates]
	}
	size := 3 // version + count
	for _, u := range ups {
		size += ids.Bytes + 1 + 8 + 2 + len(u.Node.Addr)
	}
	out := make([]byte, 0, size)
	out = append(out, gossipVersion)
	out = binary.BigEndian.AppendUint16(out, uint16(len(ups)))
	for _, u := range ups {
		addr := u.Node.Addr
		if len(addr) > maxGossipAddr {
			addr = addr[:maxGossipAddr]
		}
		out = append(out, u.Node.ID[:]...)
		out = append(out, byte(u.State))
		out = binary.BigEndian.AppendUint64(out, u.Inc)
		out = binary.BigEndian.AppendUint16(out, uint16(len(addr)))
		out = append(out, addr...)
	}
	return out
}

// DecodeUpdates parses a gossip batch. A nil or empty payload is a
// valid empty batch (plain probes carry none).
func DecodeUpdates(data []byte) ([]MemberUpdate, error) {
	if len(data) == 0 {
		return nil, nil
	}
	if data[0] != gossipVersion {
		return nil, fmt.Errorf("wire: gossip version %d not understood", data[0])
	}
	if len(data) < 3 {
		return nil, fmt.Errorf("wire: gossip batch truncated at %d bytes", len(data))
	}
	n := int(binary.BigEndian.Uint16(data[1:3]))
	if n > MaxGossipUpdates {
		return nil, fmt.Errorf("wire: gossip batch of %d entries exceeds limit", n)
	}
	data = data[3:]
	ups := make([]MemberUpdate, 0, n)
	for i := 0; i < n; i++ {
		if len(data) < ids.Bytes+1+8+2 {
			return nil, fmt.Errorf("wire: gossip entry %d truncated", i)
		}
		var u MemberUpdate
		copy(u.Node.ID[:], data[:ids.Bytes])
		data = data[ids.Bytes:]
		u.State = MemberState(data[0])
		if u.State > StateDead {
			return nil, fmt.Errorf("wire: gossip entry %d: bad state %d", i, data[0])
		}
		u.Inc = binary.BigEndian.Uint64(data[1:9])
		alen := int(binary.BigEndian.Uint16(data[9:11]))
		data = data[11:]
		if alen > maxGossipAddr {
			return nil, fmt.Errorf("wire: gossip entry %d: address of %d bytes exceeds limit", i, alen)
		}
		if len(data) < alen {
			return nil, fmt.Errorf("wire: gossip entry %d: address truncated", i)
		}
		u.Node.Addr = string(data[:alen])
		data = data[alen:]
		ups = append(ups, u)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("wire: gossip batch has %d trailing bytes", len(data))
	}
	return ups, nil
}
