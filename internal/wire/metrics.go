package wire

import (
	"time"

	"peerstripe/internal/telemetry"
)

// PoolMetrics instruments a Pool. Instruments are resolved once at
// construction — per-op maps precomputed over Ops — so the per-call
// recording cost is a handful of atomic adds with no lookups or
// allocation on the hot path. A nil *PoolMetrics (the zero Pool.Metrics)
// disables recording entirely.
type PoolMetrics struct {
	dials       *telemetry.Counter
	dialErrors  *telemetry.Counter
	retries     *telemetry.Counter
	bytesOut    *telemetry.Counter
	bytesIn     *telemetry.Counter
	calls       map[Op]*telemetry.Counter
	callErrors  map[Op]*telemetry.Counter
	callSeconds map[Op]*telemetry.Histogram
}

// NewPoolMetrics registers the pool's instrument families in reg and
// returns the resolved set. The per-op families carry an op label with
// one series per protocol op.
func NewPoolMetrics(reg *telemetry.Registry) *PoolMetrics {
	m := &PoolMetrics{
		dials:       reg.Counter("ps_client_dials_total", "Connections dialed by the wire pool."),
		dialErrors:  reg.Counter("ps_client_dial_errors_total", "Dials that failed."),
		retries:     reg.Counter("ps_client_retries_total", "Calls retried after the pooled connection died under them."),
		bytesOut:    reg.Counter("ps_client_bytes_out_total", "Request payload bytes sent."),
		bytesIn:     reg.Counter("ps_client_bytes_in_total", "Response payload bytes received."),
		calls:       make(map[Op]*telemetry.Counter, len(Ops)),
		callErrors:  make(map[Op]*telemetry.Counter, len(Ops)),
		callSeconds: make(map[Op]*telemetry.Histogram, len(Ops)),
	}
	for _, op := range Ops {
		m.calls[op] = reg.Counter("ps_client_calls_total", "Round trips issued, by protocol op.", "op", string(op))
		m.callErrors[op] = reg.Counter("ps_client_call_errors_total", "Round trips that returned an error, by protocol op.", "op", string(op))
		m.callSeconds[op] = reg.Histogram("ps_client_call_seconds", "Round-trip latency, by protocol op.", "op", string(op))
	}
	return m
}

// record accounts one finished round trip. An op outside Ops resolves
// to nil instruments, which no-op.
func (m *PoolMetrics) record(op Op, start time.Time, req *Request, resp *Response, err error) {
	m.calls[op].Inc()
	m.callSeconds[op].Since(start)
	if err != nil {
		m.callErrors[op].Inc()
	}
	m.bytesOut.Add(int64(len(req.Data)))
	if resp != nil {
		m.bytesIn.Add(int64(len(resp.Data)))
	}
}

// The count helpers below are nil-safe so Pool call sites stay
// unconditional.

func (m *PoolMetrics) countDial() {
	if m != nil {
		m.dials.Inc()
	}
}

func (m *PoolMetrics) countDialError() {
	if m != nil {
		m.dialErrors.Inc()
	}
}

func (m *PoolMetrics) countRetry() {
	if m != nil {
		m.retries.Inc()
	}
}
