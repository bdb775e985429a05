package peerstripe

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"peerstripe/internal/core"
	"peerstripe/internal/ids"
	"peerstripe/internal/node"
	"peerstripe/internal/telemetry"
)

// Node is one running storage node, contributing capacity to a ring
// and serving the multiplexed wire protocol, streaming transfers
// included. Create one with ListenAndServe.
//
// With WithDetector the node runs the SWIM-style failure detector —
// probing members, gossiping membership deltas, and committing deaths
// after a refutable suspicion window — and with WithRepair it heals
// files affected by those deaths autonomously. See docs/RING.md for
// the membership lifecycle and knob guidance.
type Node struct {
	s *node.Server
}

// NodeOption configures a storage node at ListenAndServe time.
type NodeOption func(*nodeOptions) error

// nodeOptions collects the resolved node configuration.
type nodeOptions struct {
	det        *node.DetectorConfig
	repairCode string
	repairRate int64
}

// detector returns the detector config, enabling the detector as a
// side effect — every probe/suspicion knob implies WithDetector.
func (o *nodeOptions) detector() *node.DetectorConfig {
	if o.det == nil {
		o.det = &node.DetectorConfig{}
	}
	return o.det
}

// WithDetector runs the SWIM-style failure detector with default
// knobs: periodic direct probes, indirect probes through k peers
// before suspicion, death only after a refutable suspicion window,
// and epidemic membership gossip.
func WithDetector() NodeOption {
	return func(o *nodeOptions) error { o.detector(); return nil }
}

// WithProbeInterval sets the gap between failure-detector probe
// rounds (default 1s). Implies WithDetector.
func WithProbeInterval(d time.Duration) NodeOption {
	return func(o *nodeOptions) error {
		if d <= 0 {
			return fmt.Errorf("peerstripe: probe interval must be positive, got %v", d)
		}
		o.detector().ProbeInterval = d
		return nil
	}
}

// WithProbeTimeout bounds one direct or indirect probe (default
// 500ms). Implies WithDetector.
func WithProbeTimeout(d time.Duration) NodeOption {
	return func(o *nodeOptions) error {
		if d <= 0 {
			return fmt.Errorf("peerstripe: probe timeout must be positive, got %v", d)
		}
		o.detector().ProbeTimeout = d
		return nil
	}
}

// WithSuspicionTimeout sets how long a suspected member may refute
// before its death commits and repair begins (default 4s). Implies
// WithDetector.
func WithSuspicionTimeout(d time.Duration) NodeOption {
	return func(o *nodeOptions) error {
		if d <= 0 {
			return fmt.Errorf("peerstripe: suspicion timeout must be positive, got %v", d)
		}
		o.detector().SuspicionTimeout = d
		return nil
	}
}

// WithIndirectProbes sets k, how many peers are asked to probe a
// target that failed its direct probe before it is suspected (default
// 3). Implies WithDetector.
func WithIndirectProbes(k int) NodeOption {
	return func(o *nodeOptions) error {
		if k <= 0 {
			return fmt.Errorf("peerstripe: indirect probe count must be positive, got %d", k)
		}
		o.detector().IndirectProbes = k
		return nil
	}
}

// WithRepair runs the autonomous repair daemon: when a death commits,
// files whose allocation tables this node holds are re-repaired
// through the live client path, most degraded first. code names the
// erasure code the ring's files are stored with (as in WithCode).
func WithRepair(code string) NodeOption {
	return func(o *nodeOptions) error {
		switch code {
		case "null", "xor", "online", "rs":
			o.repairCode = code
			return nil
		default:
			return fmt.Errorf("peerstripe: unknown erasure code %q (want null, xor, online, rs)", code)
		}
	}
}

// WithRepairRate caps the repair daemon's regenerated bytes per
// second (default 32 MiB/s), keeping repair traffic from starving the
// foreground data path. Requires WithRepair.
func WithRepairRate(bytesPerSec int64) NodeOption {
	return func(o *nodeOptions) error {
		if bytesPerSec <= 0 {
			return fmt.Errorf("peerstripe: repair rate must be positive, got %d", bytesPerSec)
		}
		o.repairRate = bytesPerSec
		return nil
	}
}

// ListenAndServe starts a storage node on addr (use "host:0" for an
// ephemeral port) contributing capacity bytes. A non-empty seed joins
// the ring through that member; an empty seed starts a new ring. A
// non-empty name gives the node a stable ring identity across
// restarts; otherwise the identity derives from the listen address.
//
// The node serves until Close. It is the same server the psnode
// command runs; embedding programs and test harnesses use it to form
// in-process rings.
func ListenAndServe(addr string, capacity int64, seed, name string, opts ...NodeOption) (*Node, error) {
	var no nodeOptions
	for _, opt := range opts {
		if err := opt(&no); err != nil {
			return nil, err
		}
	}
	so := node.ServerOptions{Detector: no.det}
	if name != "" {
		id := ids.FromName("node:" + name)
		so.ID = &id
	}
	if no.repairCode != "" {
		code, err := core.CodeFor(no.repairCode, "")
		if err != nil {
			return nil, fmt.Errorf("peerstripe: %w", err)
		}
		so.Repair = &node.RepairConfig{Code: code, Rate: no.repairRate}
	} else if no.repairRate != 0 {
		return nil, fmt.Errorf("peerstripe: WithRepairRate requires WithRepair")
	}
	s, err := node.NewServerOpts(addr, capacity, seed, so)
	if err != nil {
		return nil, fmt.Errorf("peerstripe: %w", err)
	}
	return &Node{s: s}, nil
}

// Addr returns the node's listen address — what other nodes and
// clients dial.
func (n *Node) Addr() string { return n.s.Addr() }

// ID returns the node's ring identifier in short printable form.
func (n *Node) ID() string { return n.s.ID.Short() }

// RingSize returns the node's current membership view size.
func (n *Node) RingSize() int { return n.s.RingSize() }

// Used returns bytes currently stored on the node.
func (n *Node) Used() int64 { return n.s.Used() }

// Blocks returns the number of blocks the node holds.
func (n *Node) Blocks() int { return n.s.NumBlocks() }

// MemberInfo is one entry of a node's membership view.
type MemberInfo struct {
	// ID is the member's ring identifier in short printable form.
	ID string
	// Addr is the address the member is dialed at.
	Addr string
	// State is "alive", "suspect", or "dead".
	State string
	// Incarnation orders claims about the member; only the member
	// itself raises it, when refuting a suspicion.
	Incarnation uint64
}

// Members returns the node's membership view, sorted by ring
// identifier: every member it has heard of with its liveness state.
// Without WithDetector the view still lists joined members, all alive.
func (n *Node) Members() []MemberInfo {
	ups := n.s.Members()
	out := make([]MemberInfo, len(ups))
	for i, u := range ups {
		out[i] = MemberInfo{
			ID:          u.Node.ID.Short(),
			Addr:        u.Node.Addr,
			State:       u.State.String(),
			Incarnation: u.Inc,
		}
	}
	return out
}

// RepairReport is the repair daemon's cumulative accounting.
type RepairReport struct {
	// DeathsObserved counts committed deaths this node processed.
	DeathsObserved int
	// FilesQueued counts file enqueues (re-damage re-enqueues count).
	FilesQueued int
	// FilesRepaired counts repair passes that completed cleanly.
	FilesRepaired int
	// FilesFailed counts files given up on after the attempt budget.
	FilesFailed int
	// BlocksRecreated counts blocks re-encoded and re-placed.
	BlocksRecreated int
	// BytesRecreated counts the bytes of those blocks.
	BytesRecreated int64
	// CATReplicasRecreated counts restored CAT copies.
	CATReplicasRecreated int
	// ChunksLost counts chunks found below the code's decode threshold.
	ChunksLost int
}

// RepairReport returns the repair daemon's cumulative accounting
// (zero without WithRepair).
func (n *Node) RepairReport() RepairReport {
	return RepairReport(n.s.RepairReport())
}

// RepairQueue returns how many files are queued for or undergoing
// repair (zero without WithRepair).
func (n *Node) RepairQueue() int { return n.s.RepairQueueDepth() }

// AdminHandler returns the node's admin HTTP handler:
//
//	/-/metrics       node telemetry, Prometheus text format
//	/-/healthz       200 "ok" while the node serves
//	/debug/pprof/    net/http/pprof profiles
//
// The handler is what psnode's -admin flag serves. It has no
// authentication and pprof exposes process internals — bind it to
// loopback or a management network, never the public data address.
// See docs/OBSERVABILITY.md.
func (n *Node) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/-/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		telemetry.WritePrometheus(w, n.s.Telemetry())
	})
	mux.HandleFunc("/-/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// SetMaxInflight bounds concurrently served requests per multiplexed
// connection (0 restores the default). Connections accepted after the
// call pick up the new bound.
func (n *Node) SetMaxInflight(max int) { n.s.SetMaxInflight(max) }

// Close stops serving and discards the node's blocks, as when a
// desktop departs the pool.
func (n *Node) Close() error { return n.s.Close() }
