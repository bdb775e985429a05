package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"peerstripe"
	"peerstripe/gateway"
)

// config is one run's arguments.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale divides every object size; it is 1 except in the smoke
	// test, which runs each workload on a reduced catalogue.
	scale int64
	// outDir receives <workload>.trace.json from a traced run.
	outDir string
}

func (cfg config) size(nominal int64) int64 { return nominal / cfg.scale }

// nodeCapacity is each bench node's contributed space: far above any
// workload's footprint, so capacity probes never shrink a chunk and
// chunk sizes are set by the 16 MiB cap alone.
const nodeCapacity = 64 << 30

// run is one workload's live system: the loopback ring, the shared
// client, the gateway for the HTTP workload, and the load generators.
type run struct {
	cfg     config
	spec    *spec
	nodes   []*peerstripe.Node // live nodes; a killed node is removed
	cl      *peerstripe.Client
	gw      *gateway.Gateway
	srv     *httptest.Server
	clients []*client

	// Catalogue state, filled by the workload's preload.
	objs     []*object
	locks    []sync.RWMutex // gateway_hot: one per object, see gatewayOp
	readable []int          // degraded_range: indices into objs

	live       atomic.Int64 // user bytes currently stored
	unreadable int          // degraded_range: objects lost with the dead node
	maxShare   float64      // largest node's share of blocks at end of set-up
	setupRatio float64      // stored bytes per live user byte at end of set-up
	closed     bool
}

// client is one closed-loop load generator: it issues its next
// operation only when the previous one has returned.
type client struct {
	idx  int
	rng  *rand.Rand
	zipf *rand.Zipf
	http *http.Client
	tr   *tracer
	buf  []byte    // copy buffer for full reads; holds a ranged read whole
	img  []byte    // checkpoint image, or the expected bytes of a range
	own  []*object // names only this client writes
	seq  int       // objects this client has created (bigcopy)

	// Decks the workload deals operation kinds, sizes and names from.
	kinds, sizes, writes, reads *deck

	rec record
}

// record is what a client measured during one phase.
type record struct {
	ops, failed    int
	wLat, rLat     []time.Duration
	wBytes, rBytes int64
}

func (c *client) wrote(d time.Duration, n int64) {
	c.rec.wLat = append(c.rec.wLat, d)
	c.rec.wBytes += n
}

func (c *client) didRead(d time.Duration, n int64) {
	c.rec.rLat = append(c.rec.rLat, d)
	c.rec.rBytes += n
}

// fail counts a failed operation: any error, and any body that is
// wrong, short or from another version than the one it claims.
func (c *client) fail(err error) {
	if c.rec.failed < 5 {
		fmt.Fprintf(os.Stderr, "bench: client %d: failed op: %v\n", c.idx, err)
	}
	c.rec.failed++
}

var bg = context.Background()

// setUp starts the ring, dials the shared client, fronts it with a
// gateway where the workload asks for one, and preloads the catalogue.
func setUp(cfg config, sp *spec) (*run, error) {
	r := &run{cfg: cfg, spec: sp}
	seed := ""
	for i := 0; i < sp.nodes; i++ {
		// Stable names give stable IDs, so placement repeats exactly
		// for a seed whatever ports the kernel hands out.
		n, err := peerstripe.ListenAndServe("127.0.0.1:0", nodeCapacity, seed, fmt.Sprintf("bench-node-%d", i))
		if err != nil {
			r.close()
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		r.nodes = append(r.nodes, n)
		if i == 0 {
			seed = n.Addr()
		}
	}
	cl, err := peerstripe.Dial(bg, seed, peerstripe.WithCode(sp.code))
	if err != nil {
		r.close()
		return nil, err
	}
	r.cl = cl
	if got := len(cl.Nodes()); got != sp.nodes {
		r.close()
		return nil, fmt.Errorf("client sees %d of %d nodes", got, sp.nodes)
	}
	if sp.gateway {
		r.gw = gateway.New(cl, gateway.Config{})
		r.srv = httptest.NewServer(r.gw)
	}
	for i := 0; i < clientCount(); i++ {
		c := &client{
			idx: i,
			rng: rand.New(rand.NewSource(cfg.seed*1000003 + int64(i) + 1)),
			buf: make([]byte, 1<<20),
			img: make([]byte, cfg.size(4<<20)),
		}
		if sp.gateway {
			// One keep-alive connection per client: no more
			// connections than client goroutines.
			c.http = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		}
		r.clients = append(r.clients, c)
	}
	if err := sp.preload(r); err != nil {
		r.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	blocks, most := 0, 0
	for _, n := range r.nodes {
		b := n.Blocks()
		blocks += b
		most = max(most, b)
	}
	r.maxShare = float64(most) / float64(blocks)
	r.setupRatio = r.storedRatio()
	return r, nil
}

// clientCount is the number of load-generating goroutines (and
// connections): one per processor, so the generator never contends
// with itself for more CPUs than the machine has.
func clientCount() int { return runtime.NumCPU() }

// each runs fn once per client, concurrently, and joins the errors.
func (r *run) each(fn func(c *client) error) error {
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// storedRatio is Σ Node.Used() over the live nodes per live user byte.
func (r *run) storedRatio() float64 {
	var used int64
	for _, n := range r.nodes {
		used += n.Used()
	}
	return float64(used) / float64(r.live.Load())
}

// loop drives every client closed-loop for d and returns the time the
// phase really took: an operation in flight at the deadline finishes
// and is counted.
func (r *run) loop(d time.Duration) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	r.each(func(c *client) error { //nolint:errcheck // the closure returns nil
		for time.Now().Before(deadline) {
			c.rec.ops++
			r.spec.op(r, c)
		}
		return nil
	})
	return time.Since(start)
}

func (a record) plus(b record) record {
	return record{
		ops: a.ops + b.ops, failed: a.failed + b.failed,
		wLat: append(a.wLat, b.wLat...), rLat: append(a.rLat, b.rLat...),
		wBytes: a.wBytes + b.wBytes, rBytes: a.rBytes + b.rBytes,
	}
}

// takeRecords returns what the clients measured and starts them afresh.
func (r *run) takeRecords() record {
	var sum record
	for _, c := range r.clients {
		sum = sum.plus(c.rec)
		c.rec = record{}
	}
	return sum
}

// gatewayErrors is the key counters files gateway.Stats().Errors under.
const gatewayErrors = "ps_gw_errors_total"

// counters merges the cumulative counters the system exports: the
// shared client's registry (ps_client_*, ps_cache_*), the sum over the
// live nodes' registries (ps_node_*), and the gateway's error count.
func (r *run) counters() map[string]int64 {
	out := make(map[string]int64)
	for k, v := range r.cl.Metrics().Counters {
		out[k] = v
	}
	for _, n := range r.nodes {
		for k, v := range n.Metrics().Counters {
			out[k] += v
		}
	}
	if r.gw != nil {
		out[gatewayErrors] = r.gw.Stats().Errors
	}
	return out
}

// close releases everything setUp started. It is safe on a partly
// built run, and a second close does nothing.
func (r *run) close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, c := range r.clients {
		if c.http != nil {
			c.http.CloseIdleConnections()
		}
	}
	if r.srv != nil {
		r.srv.Close()
	}
	if r.cl != nil {
		r.cl.Close() //nolint:errcheck // always nil
	}
	for _, n := range r.nodes {
		n.Close() //nolint:errcheck // listener close error after a clean run is noise
	}
}

// awaitGoroutines waits for the goroutine count to come back to base
// after a close: exits are asynchronous, so it polls briefly.
func awaitGoroutines(base int) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutine leak: %d running after close, %d before the ring started", n, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// store streams o into the ring through the shared client.
func (c *client) store(r *run, parent int64, o *object) error {
	s := c.tr.begin(parent, "peerstripe", "Store")
	_, err := r.cl.Store(bg, o.name, o.reader(), o.size)
	c.tr.end(s, o.size)
	return err
}

// readFull opens o, copies it all into a checksumming sink and checks
// length and checksum against the regenerated stream.
func (c *client) readFull(r *run, parent int64, o *object) error {
	s := c.tr.begin(parent, "peerstripe", "Open")
	f, err := r.cl.Open(bg, o.name)
	c.tr.end(s, 0)
	if err != nil {
		return err
	}
	var w sumWriter
	s = c.tr.begin(parent, "peerstripe", "Read")
	_, err = io.CopyBuffer(&w, f, c.buf)
	c.tr.end(s, w.n)
	s = c.tr.begin(parent, "peerstripe", "Close")
	f.Close() //nolint:errcheck // read-only handle
	c.tr.end(s, 0)
	if err != nil {
		return err
	}
	return o.checkFull(&w)
}

func (o *object) checkFull(w *sumWriter) error {
	if w.n != o.size {
		return fmt.Errorf("%s v%d: read %d bytes, stored %d", o.name, o.version, w.n, o.size)
	}
	if w.sum != o.sum {
		return fmt.Errorf("%s v%d: body checksum %08x, stored %08x", o.name, o.version, w.sum, o.sum)
	}
	return nil
}

// checkRange compares got with the stream's bytes at off, regenerated
// into want (a scratch buffer at least as long).
func (o *object) checkRange(got []byte, off int64, want []byte) error {
	want = want[:len(got)]
	o.key.fill(want, off)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s v%d: wrong bytes in [%d,%d)", o.name, o.version, off, off+int64(len(got)))
	}
	return nil
}
