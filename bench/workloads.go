package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// spec is one workload: the ring it runs on, the catalogue it
// preloads, and the operation each client repeats.
type spec struct {
	name    string
	why     string // one line, repeated in BENCHMARK.json
	nodes   int
	code    string // erasure code the shared client is dialled with
	gateway bool   // drive the ring through the HTTP gateway
	// object is the nominal object size: what the layer ladder pushes
	// through every layer for this workload.
	object  int64
	preload func(r *run) error
	op      func(r *run, c *client)
}

// The workload names are fixed: later issues cite them.
var specs = []*spec{
	{
		name:  "bigcopy",
		why:   "64 MiB online-coded objects stored, read once and deleted: erasure coding and the node upload/fetch pipeline do the work, the cache cannot help, the gateway is idle",
		nodes: 5, code: "online", object: 64 << 20,
		preload: bigcopyPreload, op: bigcopyOp,
	},
	{
		name:  "checkpoint",
		why:   "256 KiB-4 MiB xor checkpoints overwritten 4:1 against restores of the same names: coding is nearly free, so per-operation fixed cost (probes, CAT replicas, round trips) sets the result",
		nodes: 5, code: "xor", object: 1 << 20,
		preload: checkpointPreload, op: checkpointOp,
	},
	{
		name:  "gateway_hot",
		why:   "HTTP GETs (ranged, full, conditional) and 5% PUTs, Zipf over 48 MiB that fits the 64 MiB chunk cache: gateway and cache do the work, coding and transport run only after a PUT",
		nodes: 5, code: "xor", gateway: true, object: 4 << 20,
		preload: gatewayPreload, op: gatewayOp,
	},
	{
		name:  "degraded_range",
		why:   "1 MiB ranged reads over 256 MiB (4x the cache) with one of 8 nodes dead: mostly cache misses, each a block wave with blocks gone, parity reconstruction and a whole-chunk decode",
		nodes: 8, code: "xor", object: 16 << 20,
		preload: degradedPreload, op: degradedOp,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// jitter takes up to 1/64 off a nominal size, from the seed, so that
// sizes are not all powers of two and the byte ratios differ by seed.
func jitter(rng *rand.Rand, nominal int64) int64 {
	return nominal - rng.Int63n(nominal/64+1)
}

// objectName leaves the seed out of every name: placement is by name
// hash, so it is the same on every seed, and what a seed changes is
// sizes, contents and the order of operations. A benchmark that drew
// a new placement per seed would report the luck of the draw — which
// blocks the dead node held — as run-to-run spread.
func (r *run) objectName(format string, args ...any) string {
	return r.spec.name + "/" + fmt.Sprintf(format, args...)
}

// deck deals the values 0..n-1 in seeded random order and reshuffles
// when it runs out, so every n draws hold each value exactly once.
// Operation kinds and sizes are dealt rather than drawn independently:
// the mix is then the stated one in every run, not in expectation, and
// two seeds differ in order only.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, n int) *deck {
	d := &deck{rng: rng, cards: make([]int, n), next: n}
	for i := range d.cards {
		d.cards[i] = i
	}
	return d
}

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// ---- bigcopy ----

// bigcopyPreload stores one resident object per client. It stays for
// the whole run: the stored-bytes level is read against it, and it
// gives set-up a cost a regression can show in.
func bigcopyPreload(r *run) error {
	return r.each(func(c *client) error {
		o := newObject(r.cfg.seed, r.objectName("resident-%d", c.idx), 0, jitter(c.rng, r.cfg.size(64<<20)))
		if err := c.store(r, 0, o); err != nil {
			return err
		}
		r.live.Add(o.size)
		return nil
	})
}

// bigcopyOp is the paper's bigcopy: store a fresh object, read it all
// back, delete it.
func bigcopyOp(r *run, c *client) {
	op := c.tr.begin(0, "bench", "bigcopy")
	defer func() { c.tr.end(op, 0) }()
	o := newObject(r.cfg.seed, r.objectName("c%d-%d", c.idx, c.seq), 0, jitter(c.rng, r.cfg.size(64<<20)))
	c.seq++

	t0 := time.Now()
	if err := c.store(r, op, o); err != nil {
		c.fail(err)
		return
	}
	c.wrote(time.Since(t0), o.size)

	t0 = time.Now()
	if err := c.readFull(r, op, o); err != nil {
		c.fail(err)
	} else {
		c.didRead(time.Since(t0), o.size)
	}

	s := c.tr.begin(op, "peerstripe", "Delete")
	err := r.cl.Delete(bg, o.name)
	c.tr.end(s, 0)
	if err != nil {
		c.fail(err)
	}
}

// ---- checkpoint ----

const checkpointNames = 8

// checkpointSize draws an image size log-uniformly from 256 KiB to
// 4 MiB, stratified: the range is cut into eight log-spaced steps that
// are dealt in turn, and the size is uniform within its step. Any
// eight consecutive images then cover the whole range, so two runs
// move nearly the same bytes, while sizes stay continuous — with eight
// fixed sizes the median latency sat in the gap between two of them.
func checkpointSize(r *run, c *client) int64 {
	step := (float64(c.sizes.draw()) + c.rng.Float64()) / checkpointNames
	return int64(float64(r.cfg.size(256<<10)) * math.Pow(16, step))
}

func checkpointPreload(r *run) error {
	return r.each(func(c *client) error {
		c.kinds, c.sizes = newDeck(c.rng, 5), newDeck(c.rng, checkpointNames)
		c.writes, c.reads = newDeck(c.rng, checkpointNames), newDeck(c.rng, checkpointNames)
		for k := 0; k < checkpointNames; k++ {
			o := newObject(r.cfg.seed, r.objectName("c%d-ckpt-%d", c.idx, k), 0, checkpointSize(r, c))
			if _, err := r.cl.StoreBytes(bg, o.name, o.fillBytes(c.img)); err != nil {
				return err
			}
			r.live.Add(o.size)
			c.own = append(c.own, o)
		}
		return nil
	})
}

// checkpointOp overwrites one of the client's own names with a fresh
// image four times in five, and otherwise restores the latest image of
// one. Only the owner touches a name, so a restore always has one
// right answer: the last image written.
func checkpointOp(r *run, c *client) {
	op := c.tr.begin(0, "bench", "checkpoint")
	defer func() { c.tr.end(op, 0) }()
	if c.kinds.draw() == 0 {
		old := c.own[c.reads.draw()]
		t0 := time.Now()
		if err := c.readFull(r, op, old); err != nil {
			c.fail(err)
			return
		}
		c.didRead(time.Since(t0), old.size)
		return
	}
	k := c.writes.draw()
	old := c.own[k]
	o := newObject(r.cfg.seed, old.name, old.version+1, checkpointSize(r, c))
	data := o.fillBytes(c.img)
	t0 := time.Now()
	s := c.tr.begin(op, "peerstripe", "StoreBytes")
	_, err := r.cl.StoreBytes(bg, o.name, data)
	c.tr.end(s, o.size)
	if err != nil {
		c.fail(err)
		return
	}
	c.wrote(time.Since(t0), o.size)
	c.own[k] = o
	r.live.Add(o.size - old.size)
}

// ---- gateway_hot ----

const (
	gatewayObjects = 12
	gatewayRange   = 64 << 10
)

func gatewayPreload(r *run) error {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	r.locks = make([]sync.RWMutex, gatewayObjects)
	for i := 0; i < gatewayObjects; i++ {
		r.objs = append(r.objs, newObject(r.cfg.seed, r.objectName("obj-%02d", i), 0, jitter(rng, r.cfg.size(4<<20))))
	}
	return r.each(func(c *client) error {
		c.kinds = newDeck(c.rng, 20)
		c.zipf = rand.NewZipf(c.rng, 1.1, 1, gatewayObjects-1)
		for i := c.idx; i < gatewayObjects; i += len(r.clients) {
			if err := c.httpPut(r, 0, r.objs[i]); err != nil {
				return err
			}
			r.live.Add(r.objs[i].size)
		}
		return nil
	})
}

// gatewayOp picks an object Zipf(1.1) and issues 60 % ranged GETs,
// 30 % full GETs, 5 % conditional GETs and 5 % PUTs of a new version
// of the same size. Every response is checked against the version its
// ETag names.
//
// The ring overwrites blocks in place and a reader holding the old
// allocation table can decode a mix of old and new blocks (ROADMAP
// item 4a): the system makes no promise for a read that races a
// replace of the same name. The harness therefore never reads an
// object while it is being replaced — a client that finds its pick
// busy moves to the next object — and what it does check is the
// promise the system makes: once a PUT has returned, every later GET
// serves the new version, never cached bytes of the old one.
func gatewayOp(r *run, c *client) {
	op := c.tr.begin(0, "bench", "gateway_hot")
	defer func() { c.tr.end(op, 0) }()
	pick := int(c.zipf.Uint64())
	kind := c.kinds.draw() // of 20: 12 ranged, 6 full, 1 conditional, 1 PUT
	if kind == 19 {
		i := pick
		for !r.locks[i].TryLock() {
			i = (i + 1) % gatewayObjects
		}
		defer r.locks[i].Unlock()
		old := r.objs[i]
		o := newObject(r.cfg.seed, old.name, old.version+1, old.size)
		t0 := time.Now()
		if err := c.httpPut(r, op, o); err != nil {
			c.fail(err)
			return
		}
		c.wrote(time.Since(t0), o.size)
		r.objs[i] = o
		return
	}
	i := pick
	for !r.locks[i].TryRLock() {
		i = (i + 1) % gatewayObjects
	}
	defer r.locks[i].RUnlock()
	o := r.objs[i]
	var n int64
	var err error
	t0 := time.Now()
	switch {
	case kind < 12:
		length := min(r.cfg.size(gatewayRange), o.size)
		n, err = c.httpGet(r, op, o, c.rng.Int63n(o.size-length+1), length, false)
	case kind < 18:
		n, err = c.httpGet(r, op, o, 0, o.size, false)
	default:
		n, err = c.httpGet(r, op, o, 0, o.size, true)
	}
	if err != nil {
		c.fail(err)
		return
	}
	// Every GET counts towards bytes and operations; the read latency
	// is that of the full GETs alone. A ranged GET of a cached object
	// is 0.15 ms of wake-ups and system calls, and its median moved by
	// 40 % with the state of the host while everything made of work
	// moved by 15 %; it is reported per layer (gateway.get_range_us_p50).
	if kind >= 12 && kind < 18 {
		c.didRead(time.Since(t0), n)
	} else {
		c.rec.rBytes += n
	}
}

// httpPut replaces o's name with o through the gateway and records the
// ETag the gateway gives the new version.
func (c *client) httpPut(r *run, parent int64, o *object) error {
	req, err := http.NewRequest(http.MethodPut, r.srv.URL+"/"+o.name, o.reader())
	if err != nil {
		return err
	}
	req.ContentLength = o.size
	s := c.tr.begin(parent, "gateway", "PUT")
	resp, err := c.http.Do(req)
	c.tr.end(s, o.size)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // empty body; drained so the connection is reused
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("PUT %s: status %d", o.name, resp.StatusCode)
	}
	if o.etag = resp.Header.Get("ETag"); o.etag == "" {
		return fmt.Errorf("PUT %s: no ETag in response", o.name)
	}
	return nil
}

// httpGet fetches [off, off+length) of o — the whole object as a plain
// GET, a part as a Range request — or, with conditional set, asks with
// If-None-Match and expects 304. It returns the body bytes verified.
func (c *client) httpGet(r *run, parent int64, o *object, off, length int64, conditional bool) (int64, error) {
	req, err := http.NewRequest(http.MethodGet, r.srv.URL+"/"+o.name, nil)
	if err != nil {
		return 0, err
	}
	want := http.StatusOK
	switch {
	case conditional:
		req.Header.Set("If-None-Match", o.etag)
		want, length = http.StatusNotModified, 0
	case length < o.size:
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+length-1))
		want = http.StatusPartialContent
	}
	s := c.tr.begin(parent, "gateway", "GET round trip")
	resp, err := c.http.Do(req)
	c.tr.end(s, 0)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return 0, fmt.Errorf("GET %s: status %d, want %d", o.name, resp.StatusCode, want)
	}
	if tag := resp.Header.Get("ETag"); tag != o.etag {
		return 0, fmt.Errorf("GET %s: ETag %s, version %d was stored as %s", o.name, tag, o.version, o.etag)
	}
	if length < o.size {
		// A range (or the empty 304 body): compared byte for byte.
		s = c.tr.begin(parent, "gateway", "body")
		got := c.buf[:length]
		_, err = io.ReadFull(resp.Body, got)
		c.tr.end(s, length)
		if err != nil {
			return 0, fmt.Errorf("GET %s: body: %w", o.name, err)
		}
		if n, _ := resp.Body.Read(c.img[:1]); n != 0 {
			return 0, fmt.Errorf("GET %s: body longer than the %d bytes asked for", o.name, length)
		}
		return length, o.checkRange(got, off, c.img)
	}
	var w sumWriter
	s = c.tr.begin(parent, "gateway", "first byte")
	n, err := resp.Body.Read(c.buf)
	c.tr.end(s, int64(n))
	w.Write(c.buf[:n]) //nolint:errcheck // cannot fail
	if err == nil {
		s = c.tr.begin(parent, "gateway", "body")
		_, err = io.CopyBuffer(&w, resp.Body, c.buf)
		c.tr.end(s, w.n)
	}
	if err != nil && err != io.EOF {
		return 0, fmt.Errorf("GET %s: body: %w", o.name, err)
	}
	return o.size, o.checkFull(&w)
}

// ---- degraded_range ----

const (
	degradedObjects = 16
	degradedRange   = 1 << 20
	// Every degradedWriteEvery-th operation of a client is a small
	// store, so the write path is measured with a node dead too and
	// every end-to-end metric exists on every workload.
	degradedWriteEvery = 8
	degradedScratch    = 2
)

// degradedPreload stores the catalogue, kills one node, prunes it from
// the client's view, and reads every object once: an object that lost
// too many blocks with the node leaves the read set.
func degradedPreload(r *run) error {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	for i := 0; i < degradedObjects; i++ {
		r.objs = append(r.objs, newObject(r.cfg.seed, r.objectName("obj-%02d", i), 0, jitter(rng, r.cfg.size(16<<20))))
	}
	err := r.each(func(c *client) error {
		for i := c.idx; i < degradedObjects; i += len(r.clients) {
			if err := c.store(r, 0, r.objs[i]); err != nil {
				return err
			}
			r.live.Add(r.objs[i].size)
		}
		for k := 0; k < degradedScratch; k++ {
			o := newObject(r.cfg.seed, r.objectName("c%d-progress-%d", c.idx, k), 0, r.cfg.size(degradedRange))
			if err := c.store(r, 0, o); err != nil {
				return err
			}
			r.live.Add(o.size)
			c.own = append(c.own, o)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// The victim is the non-seed node holding the block count closest
	// to the mean (ties to the lowest index): placement is skewed, and
	// killing an outlier would make the workload about the outlier.
	total := 0
	for _, n := range r.nodes {
		total += n.Blocks()
	}
	mean := float64(total) / float64(len(r.nodes))
	victim := 1
	for i := 2; i < len(r.nodes); i++ {
		if math.Abs(float64(r.nodes[i].Blocks())-mean) < math.Abs(float64(r.nodes[victim].Blocks())-mean) {
			victim = i
		}
	}
	if err := r.nodes[victim].Close(); err != nil {
		return fmt.Errorf("close node %d: %w", victim, err)
	}
	r.nodes = append(r.nodes[:victim], r.nodes[victim+1:]...)
	if dropped, err := r.cl.Prune(bg); err != nil || dropped != 1 {
		return fmt.Errorf("prune dropped %d nodes (want 1): %v", dropped, err)
	}

	c := r.clients[0]
	for i, o := range r.objs {
		if err := c.readFull(r, 0, o); err != nil {
			r.unreadable++
			continue
		}
		r.readable = append(r.readable, i)
	}
	if len(r.readable) == 0 {
		return fmt.Errorf("no object survived the node kill")
	}
	return nil
}

// degradedOp reads 1 MiB at a random 1 MiB-aligned offset of a random
// surviving object; every degradedWriteEvery-th operation instead
// overwrites one of the client's small progress records.
func degradedOp(r *run, c *client) {
	op := c.tr.begin(0, "bench", "degraded_range")
	defer func() { c.tr.end(op, 0) }()
	c.seq++
	if c.seq%degradedWriteEvery == 0 {
		k := c.seq / degradedWriteEvery % len(c.own)
		o := newObject(r.cfg.seed, c.own[k].name, c.own[k].version+1, c.own[k].size)
		t0 := time.Now()
		if err := c.store(r, op, o); err != nil {
			c.fail(err)
			return
		}
		c.wrote(time.Since(t0), o.size)
		c.own[k] = o
		return
	}
	o := r.objs[r.readable[c.rng.Intn(len(r.readable))]]
	length := r.cfg.size(degradedRange)
	off := c.rng.Int63n(o.size/length) * length
	got := c.buf[:length]

	t0 := time.Now()
	s := c.tr.begin(op, "peerstripe", "Open")
	f, err := r.cl.Open(bg, o.name)
	c.tr.end(s, 0)
	if err != nil {
		c.fail(err)
		return
	}
	s = c.tr.begin(op, "peerstripe", "ReadAt")
	n, err := f.ReadAt(got, off)
	c.tr.end(s, int64(n))
	s = c.tr.begin(op, "peerstripe", "Close")
	f.Close() //nolint:errcheck // read-only handle
	c.tr.end(s, 0)
	if err != nil {
		c.fail(err)
		return
	}
	if err := o.checkRange(got[:n], off, c.img); err != nil || int64(n) != length {
		c.fail(fmt.Errorf("read %d of %d bytes: %v", n, length, err))
		return
	}
	c.didRead(time.Since(t0), length)
}
