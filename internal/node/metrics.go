package node

import (
	"peerstripe/internal/telemetry"
	"peerstripe/internal/wire"
)

// clientMetrics is the Client's instrument set, resolved once at
// construction so the data paths record with bare atomic adds. The
// wire pool's per-op round-trip metrics live alongside these in the
// same registry (wire.NewPoolMetrics).
type clientMetrics struct {
	storeSeconds  *telemetry.Histogram
	fetchSeconds  *telemetry.Histogram
	repairSeconds *telemetry.Histogram
	hedgeFires    *telemetry.Counter
	probeRejects  *telemetry.Counter
	rangeReads    *telemetry.Counter
	rangeRebuilds *telemetry.Counter
	rangeBytes    *telemetry.Counter
}

func newClientMetrics(reg *telemetry.Registry) *clientMetrics {
	return &clientMetrics{
		storeSeconds:  reg.Histogram("ps_client_store_seconds", "Whole-file store latency (StoreFile/StoreReader)."),
		fetchSeconds:  reg.Histogram("ps_client_fetch_seconds", "File, range, and chunk fetch latency."),
		repairSeconds: reg.Histogram("ps_client_repair_seconds", "Per-file repair pass latency."),
		hedgeFires:    reg.Counter("ps_client_hedge_fires_total", "Replacement block fetches launched for stalled sources on the hedged read path."),
		probeRejects:  reg.Counter("ps_client_probe_rejects_total", "Capacity probes answered with no room — chunks emitted zero-sized and retried."),
		rangeReads:    reg.Counter("ps_client_range_reads_total", "Data-block ranges delivered to partial-chunk reads without moving the chunk."),
		rangeRebuilds: reg.Counter("ps_client_range_rebuilds_total", "Of those, ranges rebuilt from the other blocks because the holder refused, lied about the length or stalled."),
		rangeBytes:    reg.Counter("ps_client_range_bytes_total", "User bytes delivered by those ranges."),
	}
}

// serverMetrics is the Server's instrument set: per-op dispatch
// counts and latency, plus error and inflight tracking. The gauges
// derived from existing server state (staging bytes, store usage,
// repair queue) register as GaugeFuncs against the same registry.
type serverMetrics struct {
	inflight      *telemetry.Gauge
	opErrors      *telemetry.Counter
	handleSeconds *telemetry.Histogram
	ops           map[wire.Op]*telemetry.Counter

	// Membership events recorded from the server's SWIM bookkeeping —
	// these fire with or without a local detector (deaths also commit
	// via gossip from detecting peers).
	deaths      *telemetry.Counter
	refutations *telemetry.Counter
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	m := &serverMetrics{
		inflight:      reg.Gauge("ps_node_inflight", "Requests currently being handled."),
		opErrors:      reg.Counter("ps_node_op_errors_total", "Requests answered with an error."),
		handleSeconds: reg.Histogram("ps_node_handle_seconds", "Request handling latency across all ops."),
		ops:           make(map[wire.Op]*telemetry.Counter, len(wire.Ops)+1),
		deaths:        reg.Counter("ps_detect_deaths_total", "Member deaths committed in this node's view."),
		refutations:   reg.Counter("ps_detect_refutations_total", "Suspicions about this node it refuted with a bumped incarnation."),
	}
	for _, op := range wire.Ops {
		m.ops[op] = reg.Counter("ps_node_ops_total", "Requests handled, by protocol op.", "op", string(op))
	}
	// Unknown ops land in their own series instead of vanishing.
	m.ops[wire.Op("unknown")] = reg.Counter("ps_node_ops_total", "Requests handled, by protocol op.", "op", "unknown")
	return m
}

// opCounter resolves the per-op dispatch counter, folding ops outside
// the protocol into the "unknown" series.
func (m *serverMetrics) opCounter(op wire.Op) *telemetry.Counter {
	if c, ok := m.ops[op]; ok {
		return c
	}
	return m.ops[wire.Op("unknown")]
}

// detectorMetrics is the failure detector's instrument set: outbound
// probe traffic and the suspicions it raises.
type detectorMetrics struct {
	probes        *telemetry.Counter
	probeFailures *telemetry.Counter
	probeSeconds  *telemetry.Histogram
	suspicions    *telemetry.Counter
}

func newDetectorMetrics(reg *telemetry.Registry) detectorMetrics {
	return detectorMetrics{
		probes:        reg.Counter("ps_detect_probes_total", "Direct probes sent."),
		probeFailures: reg.Counter("ps_detect_probe_failures_total", "Direct probes that got no answer."),
		probeSeconds:  reg.Histogram("ps_detect_probe_seconds", "Direct probe round-trip time."),
		suspicions:    reg.Counter("ps_detect_suspicions_total", "Members this node marked suspect."),
	}
}
