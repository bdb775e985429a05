package gateway

import (
	"net/http"
	"strconv"
	"time"

	"peerstripe/internal/telemetry"
)

// methods are the request methods the gateway serves; anything else
// folds into the "other" series so unexpected traffic still shows up.
var methods = []string{http.MethodGet, http.MethodHead, http.MethodPut, http.MethodDelete, "other"}

// gwMetrics is the gateway's instrument set, resolved at New so the
// request path records with bare atomic adds. The same counters back
// both the /-/stats JSON (Stats reads them directly, keeping its shape)
// and the /-/metrics Prometheus exposition.
type gwMetrics struct {
	reg *telemetry.Registry

	gets, heads, puts, deletes, errors *telemetry.Counter
	bytesOut, bytesIn                  *telemetry.Counter

	requestSeconds   map[string]*telemetry.Histogram // by method
	firstByteSeconds *telemetry.Histogram
}

func newGwMetrics() *gwMetrics {
	reg := telemetry.NewRegistry()
	m := &gwMetrics{
		reg:              reg,
		gets:             reg.Counter("ps_gw_gets_total", "GET requests received."),
		heads:            reg.Counter("ps_gw_heads_total", "HEAD requests received."),
		puts:             reg.Counter("ps_gw_puts_total", "PUT requests received."),
		deletes:          reg.Counter("ps_gw_deletes_total", "DELETE requests received."),
		errors:           reg.Counter("ps_gw_errors_total", "Requests that failed (error status or a body cut short)."),
		bytesOut:         reg.Counter("ps_gw_bytes_out_total", "Object body bytes written to GET responses."),
		bytesIn:          reg.Counter("ps_gw_bytes_in_total", "Object bytes stored from PUT request bodies."),
		requestSeconds:   make(map[string]*telemetry.Histogram, len(methods)),
		firstByteSeconds: reg.Histogram("ps_gw_first_byte_seconds", "Time from request arrival to the first response body byte."),
	}
	for _, meth := range methods {
		m.requestSeconds[meth] = reg.Histogram("ps_gw_request_seconds", "Whole-request latency, by method.", "method", meth)
	}
	return m
}

// response counts one finished request by method and status code. The
// per-code counter is resolved through the registry (get-or-create
// under its lock) — one short critical section per request, off the
// byte-moving path.
func (m *gwMetrics) response(method string, code int) {
	if _, ok := m.requestSeconds[method]; !ok {
		method = "other"
	}
	m.reg.Counter("ps_gw_responses_total", "Responses sent, by method and status code.",
		"method", method, "code", strconv.Itoa(code)).Inc()
}

// reqSeconds resolves the per-method request latency histogram.
func (m *gwMetrics) reqSeconds(method string) *telemetry.Histogram {
	if h, ok := m.requestSeconds[method]; ok {
		return h
	}
	return m.requestSeconds["other"]
}

// statusWriter wraps the ResponseWriter to observe what the handlers
// write: the final status code, body bytes, and the moment the first
// body byte leaves — the first-byte latency a streaming GET hides from
// whole-request timing.
type statusWriter struct {
	http.ResponseWriter
	met      *gwMetrics
	start    time.Time
	status   int
	wroteHdr bool
	sawByte  bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wroteHdr {
		sw.wroteHdr = true
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if !sw.wroteHdr {
		sw.wroteHdr = true
		sw.status = http.StatusOK
	}
	if !sw.sawByte && len(p) > 0 {
		sw.sawByte = true
		sw.met.firstByteSeconds.Since(sw.start)
	}
	return sw.ResponseWriter.Write(p)
}
