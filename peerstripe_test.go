package peerstripe_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"peerstripe"
	"peerstripe/internal/node"
	"peerstripe/internal/wire"
)

// testRing starts n in-process storage nodes and returns them with the
// seed address. It uses the internal server directly so tests can read
// its counters (StreamOps, FetchOps) and switch discard mode.
func testRing(t testing.TB, n int, capacity int64) ([]*node.Server, string) {
	t.Helper()
	var servers []*node.Server
	seed := ""
	for i := 0; i < n; i++ {
		s, err := node.NewServer("127.0.0.1:0", capacity, seed)
		if err != nil {
			t.Fatal(err)
		}
		if seed == "" {
			seed = s.Addr()
		}
		servers = append(servers, s)
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		converged := true
		for _, s := range servers {
			if s.RingSize() != n {
				converged = false
			}
		}
		if converged {
			return servers, seed
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("ring did not converge")
	return nil, ""
}

func dialTest(t testing.TB, seed string, opts ...peerstripe.Option) *peerstripe.Client {
	t.Helper()
	c, err := peerstripe.Dial(context.Background(), seed, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func totalStreamOps(servers []*node.Server) int64 {
	var n int64
	for _, s := range servers {
		n += s.StreamOps()
	}
	return n
}

func totalWindowOps(servers []*node.Server) int64 {
	var n int64
	for _, s := range servers {
		n += s.WindowOps()
	}
	return n
}

// TestStoreOpenRoundTripStreaming drives the full public data path
// with blocks larger than the wire segment: Store must move them as
// OpStoreWindow segments (asserted via the server counters) and the
// Open/Read surface must hand back the exact bytes.
func TestStoreOpenRoundTripStreaming(t *testing.T) {
	servers, seed := testRing(t, 4, 1<<30)
	c := dialTest(t, seed,
		peerstripe.WithCode("xor"),
		peerstripe.WithChunkCap(2<<20),
		peerstripe.WithSegment(256<<10)) // 1 MiB blocks stream in 4 segments

	data := make([]byte, 8<<20)
	rand.New(rand.NewSource(3)).Read(data)
	ctx := context.Background()
	info, err := c.Store(ctx, "stream-rt.dat", bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != int64(len(data)) || info.Chunks < 4 {
		t.Fatalf("info %+v", info)
	}
	if ops := totalStreamOps(servers); ops == 0 {
		t.Fatal("no streaming op served although blocks exceed the segment size")
	}

	f, err := c.Open(ctx, "stream-rt.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Size() != int64(len(data)) {
		t.Fatalf("Size() = %d", f.Size())
	}
	got, err := io.ReadAll(f)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("streamed round trip mismatch: %v", err)
	}

	// Seek + partial read through the io.ReadSeekCloser surface.
	if _, err := f.Seek(5<<20, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	part := make([]byte, 4096)
	if _, err := io.ReadFull(f, part); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(part, data[5<<20:5<<20+4096]) {
		t.Fatal("post-seek read mismatch")
	}
}

// TestETagTracksContent pins what the gateway's validators rest on: the
// tag is a function of the stored bytes, not only of the layout. Two
// stores of one name with the same size — hence the same chunk extents
// — but different bytes must carry different tags, through Store and
// through StoreBytes, and the same bytes stored again the same tag.
func TestETagTracksContent(t *testing.T) {
	_, seed := testRing(t, 3, 1<<30)
	c := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(64<<10))
	ctx := context.Background()
	tag := func() string {
		t.Helper()
		f, err := c.Open(ctx, "etag.dat")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		return f.ETag()
	}
	a := make([]byte, 200<<10)
	rand.New(rand.NewSource(41)).Read(a)
	b := append([]byte(nil), a...)
	b[len(b)-1] ^= 1 // one bit, in the last chunk

	if _, err := c.StoreBytes(ctx, "etag.dat", a); err != nil {
		t.Fatal(err)
	}
	tagA := tag()
	if _, err := c.StoreBytes(ctx, "etag.dat", b); err != nil {
		t.Fatal(err)
	}
	tagB := tag()
	if tagA == tagB {
		t.Fatalf("one flipped bit under an identical layout kept ETag %s", tagA)
	}
	if _, err := c.Store(ctx, "etag.dat", bytes.NewReader(a), int64(len(a))); err != nil {
		t.Fatal(err)
	}
	if got := tag(); got != tagA {
		t.Fatalf("Store of the bytes StoreBytes tagged %s is tagged %s", tagA, got)
	}
}

// TestReadAtMovesBlockRangesNotChunks pins the §4.1 ranged-read
// contract on the public surface (see File): a random partial ReadAt of
// a cold chunk costs one block-range read per data block it covers and
// leaves the cache as it was; the same read of a cached chunk costs
// nothing; and a ReadAt that continues the previous one, any Read, and
// a piece that is a whole chunk fetch the chunk and cache it.
func TestReadAtMovesBlockRangesNotChunks(t *testing.T) {
	servers, seed := testRing(t, 4, 1<<30)
	c := dialTest(t, seed,
		peerstripe.WithCode("xor"),
		peerstripe.WithChunkCap(64<<10))

	const chunk, block = 64 << 10, 32 << 10 // (2,3) XOR: two data blocks a chunk
	data := make([]byte, 8*chunk)
	rng := rand.New(rand.NewSource(4))
	rng.Read(data)
	ctx := context.Background()
	if _, err := c.StoreBytes(ctx, "ranged.dat", data); err != nil {
		t.Fatal(err)
	}
	open := func() *peerstripe.File {
		f, err := c.Open(ctx, "ranged.dat")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	// cost runs read and returns the block reads the ring served for it,
	// the block ranges the client counted, and the cache's growth.
	cost := func(read func()) (fetches, ranges, cached int64) {
		t.Helper()
		tally := func() (n int64) {
			for _, s := range servers {
				n += s.FetchOps()
			}
			return n
		}
		f0, r0, c0 := tally(), c.Metrics().Counters["ps_client_range_reads_total"], c.CacheStats().Bytes
		read()
		return tally() - f0, c.Metrics().Counters["ps_client_range_reads_total"] - r0, c.CacheStats().Bytes - c0
	}
	readAt := func(f *peerstripe.File, off, n int64) func() {
		return func() {
			t.Helper()
			buf := make([]byte, n)
			if got, err := f.ReadAt(buf, off); err != nil || int64(got) != n {
				t.Fatalf("ReadAt(%d, %d): %d, %v", n, off, got, err)
			}
			if !bytes.Equal(buf, data[off:off+n]) {
				t.Fatalf("ReadAt(%d, %d): wrong bytes", n, off)
			}
		}
	}

	// Random partial reads of cold chunks 0..3, each on a fresh handle.
	for i := 0; i < 20; i++ {
		lo := rng.Int63n(chunk - 1)
		n := 1 + rng.Int63n(chunk-1-lo) // never the whole chunk
		covered := (lo+n-1)/block - lo/block + 1
		off := rng.Int63n(4)*chunk + lo
		fetches, ranges, cached := cost(readAt(open(), off, n))
		if fetches != covered || ranges != covered || cached != 0 {
			t.Fatalf("partial ReadAt(%d, %d) over %d data blocks: %d block reads, %d ranges, cache grew %d; want %d, %d, 0",
				n, off, covered, fetches, ranges, cached, covered, covered)
		}
	}

	// A piece that is the whole chunk takes the chunk path and is cached
	// — after which a partial read of it costs nothing.
	if fetches, ranges, cached := cost(readAt(open(), 4*chunk, chunk)); fetches == 0 || ranges != 0 || cached != chunk {
		t.Fatalf("whole-chunk ReadAt: %d block reads, %d ranges, cache grew %d; want >0, 0, %d", fetches, ranges, cached, chunk)
	}
	if fetches, ranges, cached := cost(readAt(open(), 4*chunk+1000, 5000)); fetches != 0 || ranges != 0 || cached != 0 {
		t.Fatalf("partial ReadAt of a cached chunk: %d block reads, %d ranges, cache grew %d; want 0, 0, 0", fetches, ranges, cached)
	}

	// A ReadAt that starts where the previous one ended is a scan.
	f := open()
	if _, ranges, cached := cost(readAt(f, 5*chunk+100, 1000)); ranges != 1 || cached != 0 {
		t.Fatalf("first ReadAt of a handle: %d ranges, cache grew %d; want 1, 0", ranges, cached)
	}
	if _, ranges, cached := cost(readAt(f, 5*chunk+1100, 1000)); ranges != 0 || cached != chunk {
		t.Fatalf("continuing ReadAt: %d ranges, cache grew %d; want 0, %d", ranges, cached, chunk)
	}
	// ...and one that does not is a random access again.
	if _, ranges, cached := cost(readAt(f, 6*chunk+100, 1000)); ranges != 1 || cached != 0 {
		t.Fatalf("ReadAt elsewhere on the handle: %d ranges, cache grew %d; want 1, 0", ranges, cached)
	}

	// Read is sequential by definition, even the first after a Seek.
	f = open()
	if _, err := f.Seek(7*chunk+100, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	_, ranges, cached := cost(func() {
		buf := make([]byte, 1000)
		if _, err := io.ReadFull(f, buf); err != nil || !bytes.Equal(buf, data[7*chunk+100:7*chunk+1100]) {
			t.Fatalf("Read after Seek: %v", err)
		}
	})
	if ranges != 0 || cached != chunk {
		t.Fatalf("Read: %d ranges, cache grew %d; want 0, %d", ranges, cached, chunk)
	}
}

// TestReadAtOnlineCodeKeepsChunkPath: the online code is not
// systematic, so every read decodes and caches whole chunks.
func TestReadAtOnlineCodeKeepsChunkPath(t *testing.T) {
	_, seed := testRing(t, 4, 1<<30)
	c := dialTest(t, seed, peerstripe.WithCode("online"), peerstripe.WithChunkCap(64<<10))
	data := make([]byte, 128<<10)
	rand.New(rand.NewSource(5)).Read(data)
	ctx := context.Background()
	if _, err := c.StoreBytes(ctx, "online.dat", data); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open(ctx, "online.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 1000)
	if _, err := f.ReadAt(buf, 70<<10); err != nil || !bytes.Equal(buf, data[70<<10:70<<10+1000]) {
		t.Fatalf("ReadAt: %v", err)
	}
	if n := c.Metrics().Counters["ps_client_range_reads_total"]; n != 0 {
		t.Fatalf("online code moved %d block ranges", n)
	}
	if got := c.CacheStats().Bytes; got != 64<<10 {
		t.Fatalf("cache holds %d bytes after a partial read, want the 64 KiB chunk", got)
	}
}

// cancellingReader hands out pseudo-random bytes and fires cancel once
// half the file has been consumed, so the cancellation lands while the
// Store pipeline is mid-flight — past planning, before completion.
type cancellingReader struct {
	rng      *rand.Rand
	remain   int64
	fireAt   int64
	cancel   context.CancelFunc
	canceled bool
}

func (r *cancellingReader) Read(p []byte) (int, error) {
	if r.remain <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.remain {
		p = p[:r.remain]
	}
	r.rng.Read(p)
	r.remain -= int64(len(p))
	if !r.canceled && r.remain <= r.fireAt {
		r.canceled = true
		r.cancel()
	}
	return len(p), nil
}

// pipelineGoroutines counts the running goroutines other than the
// ring's idle request workers. A node's connection keeps the workers
// a burst of requests needed until the connection closes (docs/LIVE.md):
// a store with more concurrent transfers than the warm-up leaves more of
// them parked, which is steady state on the server, not a leak in the
// client's pipeline. A worker still inside a handler counts.
func pipelineGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if !idleServeWorker(g) {
			n++
		}
	}
	return n
}

// idleServeWorker reports whether one goroutine of a stack dump is a
// request worker parked between requests: blocked in the worker loop
// itself on its next request, not in a handler or a response write.
func idleServeWorker(g []byte) bool {
	header, frames, _ := bytes.Cut(g, []byte("\n"))
	return bytes.Contains(header, []byte("[chan receive")) &&
		bytes.HasPrefix(frames, []byte("peerstripe/internal/wire.(*serveConn).work("))
}

// TestPipelineGoroutinesSkipsOnlyIdleWorkers pins what the cancel tests'
// leak check leaves out of its count: a worker parked between requests,
// never one still inside its handler.
func TestPipelineGoroutinesSkipsOnlyIdleWorkers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	server, served := make(chan string, 1), make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64)
		id, _, _ := bytes.Cut(buf[:runtime.Stack(buf, false)], []byte(" ["))
		server <- string(id) // "goroutine N": the workers' creator
		wire.Serve(conn, func(req *wire.Request) *wire.Response {
			if req.Op == wire.OpFetch {
				entered <- struct{}{}
				<-release
			}
			return &wire.Response{OK: true}
		}, 0)
	}()
	p := wire.NewPool()
	defer func() {
		close(release)
		p.Close()
		<-served
	}()
	addr := ln.Addr().String()

	// The fetch's worker stays in its handler; the ping after it needs
	// another worker, which parks once the ping is answered (and the
	// serve loop may have started one more to read the next request).
	go p.CallCtx(context.Background(), addr, &wire.Request{Op: wire.OpFetch, Name: "b"}, 0) //nolint:errcheck
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the fetch never reached its handler")
	}
	if _, err := p.CallCtx(context.Background(), addr, &wire.Request{Op: wire.OpPing}, 0); err != nil {
		t.Fatal(err)
	}
	createdBy := []byte("created by peerstripe/internal/wire.Serve in " + <-server + "\n")
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		idle, busy := 0, 0
		for _, g := range bytes.Split(buf, []byte("\n\n")) {
			switch {
			case !bytes.Contains(g, createdBy):
			case idleServeWorker(g):
				idle++
			default:
				busy++
			}
		}
		if idle >= 1 && busy == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d idle and %d busy workers, want at least 1 idle and 1 busy:\n%s", idle, busy, buf)
		}
	}
}

// TestStoreCancelMidTransfer cancels a Store halfway through: the call
// must return the context error promptly, leak no goroutines, and
// leave the ring in a usable, repairable state (the same name stores
// cleanly afterwards).
func TestStoreCancelMidTransfer(t *testing.T) {
	_, seed := testRing(t, 4, 1<<30)
	c := dialTest(t, seed,
		peerstripe.WithCode("xor"),
		peerstripe.WithChunkCap(64<<10))

	// Warm up the connection pool (one persistent socket and read loop
	// per peer is steady state, not a leak) before the baseline: an
	// object of the doomed one's size spreads blocks over every node,
	// where a single chunk could leave a node undialled until the
	// doomed store dials it.
	warm := make([]byte, 1<<20)
	rand.New(rand.NewSource(5)).Read(warm)
	if _, err := c.StoreBytes(context.Background(), "warmup.dat", warm); err != nil {
		t.Fatal(err)
	}

	before := pipelineGoroutines()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const size = 1 << 20
	src := &cancellingReader{rng: rand.New(rand.NewSource(6)), remain: size, fireAt: size / 2, cancel: cancel}

	done := make(chan error, 1)
	go func() {
		_, err := c.Store(ctx, "doomed.dat", src, size)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled store did not return")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled store returned %v, want context.Canceled", err)
	}

	// Goroutine count settles back to (about) the baseline: nothing
	// from the cancelled pipeline is left behind.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && pipelineGoroutines() > before+3 {
		time.Sleep(10 * time.Millisecond)
	}
	if n := pipelineGoroutines(); n > before+3 {
		t.Fatalf("goroutines did not settle: %d before, %d after cancel", before, n)
	}

	// The ring is still healthy: the same name stores and reads back.
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(7)).Read(data)
	if _, err := c.StoreBytes(context.Background(), "doomed.dat", data); err != nil {
		t.Fatalf("re-store after cancel: %v", err)
	}
	f, err := c.Open(context.Background(), "doomed.dat")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	f.Close()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-cancel round trip: %v", err)
	}
	if st, err := c.Repair(context.Background(), "doomed.dat"); err != nil || st.ChunksLost != 0 {
		t.Fatalf("post-cancel repair: %+v, %v", st, err)
	}
}

// TestOpenReadCancel cancels the Open context while reads are in
// flight: the read must fail promptly with the context error, and
// reads after the cancel fail immediately.
func TestOpenReadCancel(t *testing.T) {
	_, seed := testRing(t, 4, 1<<30)
	c := dialTest(t, seed,
		peerstripe.WithCode("xor"),
		peerstripe.WithChunkCap(32<<10))

	data := make([]byte, 512<<10)
	rand.New(rand.NewSource(8)).Read(data)
	if _, err := c.StoreBytes(context.Background(), "cancel-read.dat", data); err != nil {
		t.Fatal(err)
	}

	before := pipelineGoroutines()
	ctx, cancel := context.WithCancel(context.Background())
	f, err := c.Open(ctx, "cancel-read.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	buf := make([]byte, 16<<10)
	start := time.Now()
	for {
		if _, err = f.ReadAt(buf, int64(rand.Intn(len(data)-len(buf)))); err != nil {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("reads kept succeeding long after cancel")
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("read after cancel returned %v, want context.Canceled", err)
	}
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("subsequent read returned %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && pipelineGoroutines() > before+3 {
		time.Sleep(10 * time.Millisecond)
	}
	if n := pipelineGoroutines(); n > before+3 {
		t.Fatalf("goroutines did not settle after read cancel: %d before, %d after", before, n)
	}
}

// TestClientKnobsFrozenUnderConcurrency is the regression test for the
// mutable-knob data races: before the redesign, reconfiguring a
// client (c.Workers = 4, c.Timeout = ...) while a transfer was in
// flight raced; the option-frozen client has no mutable knobs, so
// storms of concurrent operations on one client must run clean under
// the race detector.
func TestClientKnobsFrozenUnderConcurrency(t *testing.T) {
	_, seed := testRing(t, 5, 1<<30)
	c := dialTest(t, seed,
		peerstripe.WithCode("xor"),
		peerstripe.WithChunkCap(32<<10),
		peerstripe.WithWorkers(4),
		peerstripe.WithHedgeDelay(20*time.Millisecond))

	ctx := context.Background()
	data := make([]byte, 128<<10)
	rand.New(rand.NewSource(9)).Read(data)
	if _, err := c.StoreBytes(ctx, "frozen-0.dat", data); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := "frozen-" + string(rune('a'+g)) + ".dat"
			if _, err := c.StoreBytes(ctx, name, data); err != nil {
				errs <- err
				return
			}
			f, err := c.Open(ctx, name)
			if err != nil {
				errs <- err
				return
			}
			got, err := io.ReadAll(f)
			f.Close()
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, data) {
				errs <- errors.New("concurrent round trip mismatch")
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			c.Refresh(ctx) //nolint:errcheck
			for _, addr := range c.Nodes() {
				c.StatNode(ctx, addr) //nolint:errcheck
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestErrNotFoundAndUnavailable pins the public error classification.
func TestErrNotFoundAndUnavailable(t *testing.T) {
	_, seed := testRing(t, 3, 1<<30)
	c := dialTest(t, seed)
	ctx := context.Background()
	if _, err := c.Open(ctx, "never-stored.dat"); !errors.Is(err, peerstripe.ErrNotFound) {
		t.Fatalf("open of missing file: %v", err)
	}
	if _, err := c.Stat(ctx, "never-stored.dat"); !errors.Is(err, peerstripe.ErrNotFound) {
		t.Fatalf("stat of missing file: %v", err)
	}
	if _, err := peerstripe.Dial(ctx, "127.0.0.1:1", peerstripe.WithTimeout(300*time.Millisecond)); !errors.Is(err, peerstripe.ErrRingUnavailable) {
		t.Fatalf("dial of dead seed: %v", err)
	}
}

// TestRefreshDeadContactClassified pins that a Refresh against a
// contact node that has since died is classified as ErrRingUnavailable
// rather than surfacing as a bare transport error.
func TestRefreshDeadContactClassified(t *testing.T) {
	servers, seed := testRing(t, 2, 1<<30)
	c := dialTest(t, seed, peerstripe.WithTimeout(500*time.Millisecond))
	ctx := context.Background()
	if err := c.Refresh(ctx); err != nil {
		t.Fatalf("refresh against live ring: %v", err)
	}
	for _, s := range servers {
		s.Close()
	}
	err := c.Refresh(ctx)
	if err == nil {
		t.Fatal("refresh against dead contact succeeded")
	}
	if !errors.Is(err, peerstripe.ErrRingUnavailable) {
		t.Fatalf("refresh error not classified: %v", err)
	}
}

// TestDialOptionValidation pins option errors at Dial time.
func TestDialOptionValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := peerstripe.Dial(ctx, "127.0.0.1:1", peerstripe.WithCode("lrc")); err == nil {
		t.Fatal("unknown code accepted")
	}
	if _, err := peerstripe.Dial(ctx, "127.0.0.1:1", peerstripe.WithCode("xor"), peerstripe.WithSchedule("windowed")); err == nil {
		t.Fatal("schedule accepted for a code without the knob")
	}
	if _, err := peerstripe.Dial(ctx, "127.0.0.1:1", peerstripe.WithWorkers(-1)); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := peerstripe.Dial(ctx, "127.0.0.1:1", peerstripe.WithSegment(1<<30)); err == nil {
		t.Fatal("oversized segment accepted")
	}
}
