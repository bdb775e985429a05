// Package gateway is PeerStripe's HTTP front door: an http.Handler
// over the public peerstripe package serving GET/HEAD/PUT/DELETE on
// stored objects, so consumers reach the ring with any HTTP client
// instead of linking the Go package. cmd/psgate wraps it in a binary.
//
// The handler streams in both directions with bounded memory. GETs
// copy straight off File.ReadAt — Range requests (single and suffix
// ranges → 206 with Content-Range) pull only the chunks the range
// covers, and full-object GETs move through a small copy buffer while
// decoded chunks live in the client's shared, size-bounded cache.
// PUTs stream the request body through Client.Store one chunk at a
// time; no whole object is ever buffered (unlike the randomfs-http
// exemplar this replaces, which read full files into RAM).
//
// Hot objects scale reads two ways. The client's decoded-chunk cache
// is shared across every request with per-chunk singleflight, so a
// thundering herd on one object decodes each chunk exactly once. And
// objects a herd keeps hitting are promoted — full-copy chunk replicas
// placed across the ring (peerstripe.Promote) so later cold reads fan
// out from replicas instead of erasure-decoding.
//
// Object names are the URL path without the leading slash. Paths under
// "/-/" are reserved for the gateway itself (/-/healthz, /-/stats,
// /-/metrics — the latter Prometheus text, see docs/OBSERVABILITY.md).
package gateway

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"peerstripe"
	"peerstripe/internal/telemetry"
)

// Config tunes a Gateway. The zero value serves with promotion
// disabled and no PUT size cap.
type Config struct {
	// HotAfter is the GET count (per object, within the tracker
	// window) that triggers an asynchronous promotion of the object
	// into full-copy chunk replicas. HEAD requests do not count — a
	// metadata probe reads no data, so it earns no replicas.
	// 0 disables automatic promotion.
	HotAfter int
	// HotCopies is the replica count per chunk placed on promotion
	// (0 selects 2; capped at peerstripe.MaxHotCopies).
	HotCopies int
	// HotTrack is the tracker window: the maximum number of distinct
	// object names the promotion tracker remembers at once, evicting
	// the least recently hit (0 selects 4096). It bounds tracker
	// memory on a gateway fronting an arbitrarily large object
	// population.
	HotTrack int
	// MaxObjectBytes rejects PUTs with a larger Content-Length with
	// 413. 0 accepts any size.
	MaxObjectBytes int64
	// CopyBuffer is the per-request response copy buffer in bytes
	// (0 selects 128 KiB). It bounds per-request memory on GET; chunk
	// decode memory is bounded separately by the client's chunk cache.
	CopyBuffer int
	// Logf receives one line per failed request and per promotion.
	// nil discards.
	Logf func(format string, args ...any)
}

// Stats is a point-in-time snapshot of a Gateway's counters.
type Stats struct {
	Gets       int64                 `json:"gets"`
	Heads      int64                 `json:"heads"`
	Puts       int64                 `json:"puts"`
	Deletes    int64                 `json:"deletes"`
	Errors     int64                 `json:"errors"`
	BytesOut   int64                 `json:"bytes_out"`
	BytesIn    int64                 `json:"bytes_in"`
	Promotions int64                 `json:"promotions"`
	Cache      peerstripe.CacheStats `json:"cache"`
}

// Gateway is the http.Handler. Create one with New; it is safe for
// concurrent use.
type Gateway struct {
	cl  *peerstripe.Client
	cfg Config

	bufs sync.Pool // per-request copy buffers

	met *gwMetrics // request counters, latency, and exposition registry

	trackMu  sync.Mutex
	tracked  map[string]*list.Element
	trackLRU *list.List // of *hotState, most recently hit at front
}

// New returns a Gateway serving the client's ring. The client should
// be dialed with a chunk cache sized for the expected hot set
// (peerstripe.WithChunkCache); everything else works with defaults.
func New(cl *peerstripe.Client, cfg Config) *Gateway {
	if cfg.HotCopies <= 0 {
		cfg.HotCopies = 2
	}
	if cfg.HotCopies > peerstripe.MaxHotCopies {
		cfg.HotCopies = peerstripe.MaxHotCopies
	}
	if cfg.HotTrack <= 0 {
		cfg.HotTrack = 4096
	}
	if cfg.CopyBuffer <= 0 {
		cfg.CopyBuffer = 128 << 10
	}
	g := &Gateway{cl: cl, cfg: cfg, met: newGwMetrics(), tracked: make(map[string]*list.Element), trackLRU: list.New()}
	g.bufs.New = func() any {
		b := make([]byte, g.cfg.CopyBuffer)
		return &b
	}
	return g
}

// Stats reports the gateway's request counters plus the underlying
// client's chunk-cache counters. The counters are read from the same
// telemetry registry /-/metrics exposes, so the two views always agree.
func (g *Gateway) Stats() Stats {
	m := g.met
	return Stats{
		Gets:       m.gets.Value(),
		Heads:      m.heads.Value(),
		Puts:       m.puts.Value(),
		Deletes:    m.deletes.Value(),
		Errors:     m.errors.Value(),
		BytesOut:   m.bytesOut.Value(),
		BytesIn:    m.bytesIn.Value(),
		Promotions: m.promotions.Value(),
		Cache:      g.cl.CacheStats(),
	}
}

func (g *Gateway) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/-/healthz" {
		g.serveHealth(w, r)
		return
	}
	if r.URL.Path == "/-/stats" {
		g.serveStats(w, r)
		return
	}
	if r.URL.Path == "/-/metrics" {
		g.serveMetrics(w, r)
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/")
	if name == "" || strings.HasPrefix(name, "-/") {
		http.NotFound(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, met: g.met, start: time.Now()}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		g.serveObject(sw, r, name)
	case http.MethodPut:
		g.servePut(sw, r, name)
	case http.MethodDelete:
		g.serveDelete(sw, r, name)
	default:
		sw.Header().Set("Allow", "GET, HEAD, PUT, DELETE")
		http.Error(sw, "method not allowed", http.StatusMethodNotAllowed)
	}
	status := sw.status
	if status == 0 {
		// Nothing was written — the requester vanished mid-request.
		status = http.StatusOK
	}
	g.met.response(r.Method, status)
	g.met.reqSeconds(r.Method).Since(sw.start)
}

// serveMetrics writes the gateway's telemetry followed by the
// underlying client's (wire pool, fetch/store latency, chunk cache) in
// the Prometheus text format. The two registries use distinct metric
// prefixes (ps_gw_* vs ps_client_*/ps_cache_*), so the concatenation
// is one well-formed exposition.
func (g *Gateway) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := telemetry.WritePrometheus(w, g.met.reg); err != nil {
		return
	}
	g.cl.WriteMetrics(w) //nolint:errcheck
}

func (g *Gateway) serveHealth(w http.ResponseWriter, r *http.Request) {
	if len(g.cl.Nodes()) == 0 {
		http.Error(w, "no ring members", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (g *Gateway) serveStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(g.Stats()) //nolint:errcheck
}

// serveObject handles GET and HEAD: conditional requests, single and
// suffix Range requests mapped onto File.ReadAt, and streamed bodies.
func (g *Gateway) serveObject(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method == http.MethodHead {
		g.met.heads.Inc()
	} else {
		g.met.gets.Inc()
	}
	f, err := g.cl.Open(r.Context(), name)
	if err != nil {
		g.fail(w, r, err)
		return
	}
	defer f.Close()

	size := f.Size()
	etag := f.ETag()
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Accept-Ranges", "bytes")
	h.Set("Content-Type", "application/octet-stream")

	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}

	off, length, status := int64(0), size, http.StatusOK
	// A Range only applies when the client's view of the object is
	// current: an If-Range with a different tag means "send it all".
	if spec := r.Header.Get("Range"); spec != "" {
		if ir := r.Header.Get("If-Range"); ir == "" || ir == etag {
			switch o, l, ok, satisfiable := parseRange(spec, size); {
			case !ok:
				// Malformed or multi-range: ignore the header (RFC
				// 9110 §14.2) and serve the full object.
			case !satisfiable:
				h.Set("Content-Range", fmt.Sprintf("bytes */%d", size))
				http.Error(w, "requested range not satisfiable", http.StatusRequestedRangeNotSatisfiable)
				return
			default:
				off, length, status = o, l, http.StatusPartialContent
				h.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, off+length-1, size))
			}
		}
	}
	h.Set("Content-Length", strconv.FormatInt(length, 10))
	w.WriteHeader(status)

	if r.Method == http.MethodHead {
		return
	}
	g.recordHit(name) // GETs only: metadata probes earn no replicas
	bufp := g.bufs.Get().(*[]byte)
	defer g.bufs.Put(bufp)
	// writerOnly hides the ResponseWriter's ReadFrom so CopyBuffer
	// actually uses the pooled Config.CopyBuffer-sized buffer instead
	// of delegating to w.ReadFrom and ignoring it.
	n, err := io.CopyBuffer(writerOnly{w}, io.NewSectionReader(f, off, length), *bufp)
	g.met.bytesOut.Add(n)
	if err != nil && r.Context().Err() == nil {
		// Headers are gone; all we can do is cut the connection short
		// and note it.
		g.met.errors.Inc()
		g.logf("gateway: GET %s: streaming body: %v", name, err)
	}
}

// servePut streams the request body into the ring under the object
// name. A Content-Length is required — it is what lets Store plan
// chunk sizes up front and keep peak memory at a small multiple of
// the chunk size instead of the object size.
func (g *Gateway) servePut(w http.ResponseWriter, r *http.Request, name string) {
	g.met.puts.Inc()
	size := r.ContentLength
	if size < 0 {
		g.met.errors.Inc()
		http.Error(w, "Content-Length required (chunked uploads are not supported)", http.StatusLengthRequired)
		return
	}
	if g.cfg.MaxObjectBytes > 0 && size > g.cfg.MaxObjectBytes {
		g.met.errors.Inc()
		http.Error(w, fmt.Sprintf("object exceeds %d byte cap", g.cfg.MaxObjectBytes), http.StatusRequestEntityTooLarge)
		return
	}
	info, err := g.cl.Store(r.Context(), name, r.Body, size)
	if err != nil {
		g.fail(w, r, err)
		return
	}
	g.met.bytesIn.Add(info.Size)
	g.forget(name) // hit history belongs to the replaced bytes
	// The ETag of the freshly stored object comes from its CAT; one
	// cheap metadata open reads it back.
	if f, err := g.cl.Open(r.Context(), name); err == nil {
		w.Header().Set("ETag", f.ETag())
		f.Close() //nolint:errcheck
	}
	w.WriteHeader(http.StatusCreated)
}

func (g *Gateway) serveDelete(w http.ResponseWriter, r *http.Request, name string) {
	g.met.deletes.Inc()
	if err := g.cl.Delete(r.Context(), name); err != nil {
		g.fail(w, r, err)
		return
	}
	g.forget(name)
	w.WriteHeader(http.StatusNoContent)
}

// fail maps peerstripe error classes onto gateway status codes:
// a missing object is the caller's 404, an unreachable ring is a 503
// the client should retry, a deadline is the upstream's 504, and
// anything else is a 502 from the ring this gateway fronts.
func (g *Gateway) fail(w http.ResponseWriter, r *http.Request, err error) {
	g.met.errors.Inc()
	status := http.StatusBadGateway
	switch {
	case errors.Is(err, peerstripe.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, peerstripe.ErrRingUnavailable):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), r.Context().Err() != nil:
		// The requester is gone; nothing useful to write.
		return
	case errors.Is(err, io.ErrUnexpectedEOF):
		// A PUT body shorter than its Content-Length.
		status = http.StatusBadRequest
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	g.logf("gateway: %s %s: %d: %v", r.Method, r.URL.Path, status, err)
	http.Error(w, http.StatusText(status), status)
}

// parseRange interprets an RFC 9110 Range header against an object of
// the given size, supporting exactly the shapes File.ReadAt maps
// cleanly: one "start-end", "start-", or suffix "-n" range. ok=false
// means the header should be ignored (malformed, not bytes-unit, or
// multi-range); satisfiable=false means 416.
func parseRange(spec string, size int64) (off, length int64, ok, satisfiable bool) {
	const prefix = "bytes="
	if !strings.HasPrefix(spec, prefix) {
		return 0, 0, false, false
	}
	spec = strings.TrimSpace(strings.TrimPrefix(spec, prefix))
	if strings.Contains(spec, ",") { // multi-range: serve the full object
		return 0, 0, false, false
	}
	dash := strings.IndexByte(spec, '-')
	if dash < 0 {
		return 0, 0, false, false
	}
	startS, endS := spec[:dash], spec[dash+1:]
	if startS == "" {
		// Suffix range: the final n bytes.
		n, err := strconv.ParseInt(endS, 10, 64)
		if err != nil || n < 0 {
			return 0, 0, false, false
		}
		if n == 0 || size == 0 {
			return 0, 0, true, false
		}
		if n > size {
			n = size
		}
		return size - n, n, true, true
	}
	start, err := strconv.ParseInt(startS, 10, 64)
	if err != nil || start < 0 {
		return 0, 0, false, false
	}
	end := size - 1
	if endS != "" {
		e, err := strconv.ParseInt(endS, 10, 64)
		if err != nil || e < start {
			return 0, 0, false, false
		}
		if e < end {
			end = e
		}
	}
	// Only a well-formed range can be unsatisfiable: "9-2" past the end
	// is still malformed and ignored, not a 416.
	if start >= size {
		return 0, 0, true, false
	}
	return start, end - start + 1, true, true
}

// writerOnly restricts a writer to io.Writer alone, masking any
// ReadFrom method that would let io.CopyBuffer bypass its caller's
// buffer.
type writerOnly struct{ io.Writer }

// etagMatches reports whether an If-None-Match header value matches
// the entity tag: "*" or any listed tag, weak comparison.
func etagMatches(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}
