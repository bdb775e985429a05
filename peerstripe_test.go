package peerstripe_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"peerstripe"
	"peerstripe/internal/node"
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
// OpStoreStream segments (asserted via the server counters) and the
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

// TestReadAtFetchesOnlyNeededChunks pins the §4.1 ranged-read
// property on the public surface: a ReadAt inside one chunk costs at
// most that chunk's hedged block wave, and a cache hit costs nothing.
func TestReadAtFetchesOnlyNeededChunks(t *testing.T) {
	servers, seed := testRing(t, 4, 1<<30)
	c := dialTest(t, seed,
		peerstripe.WithCode("xor"),
		peerstripe.WithChunkCap(64<<10))

	data := make([]byte, 512<<10) // 8 chunks at the cap
	rand.New(rand.NewSource(4)).Read(data)
	ctx := context.Background()
	if _, err := c.StoreBytes(ctx, "ranged.dat", data); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open(ctx, "ranged.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	fetchesBefore := func() int64 {
		var n int64
		for _, s := range servers {
			n += s.FetchOps()
		}
		return n
	}
	base := fetchesBefore()
	buf := make([]byte, 1000)
	if _, err := f.ReadAt(buf, 100<<10); err != nil { // inside chunk 1
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[100<<10:100<<10+1000]) {
		t.Fatal("ranged bytes differ")
	}
	// (2,3) XOR with the default hedge of 1 requests at most all three
	// blocks of the one chunk the range touches.
	if delta := fetchesBefore() - base; delta == 0 || delta > 3 {
		t.Fatalf("ranged read cost %d block fetches, want 1..3 (one chunk's wave)", delta)
	}
	base = fetchesBefore()
	if _, err := f.ReadAt(buf, 101<<10); err != nil { // same chunk: cached
		t.Fatal(err)
	}
	if delta := fetchesBefore() - base; delta != 0 {
		t.Fatalf("cached re-read cost %d fetches", delta)
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
	// per peer is steady state, not a leak) before the baseline.
	warm := make([]byte, 64<<10)
	rand.New(rand.NewSource(5)).Read(warm)
	if _, err := c.StoreBytes(context.Background(), "warmup.dat", warm); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
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
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+3 {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+3 {
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

	before := runtime.NumGoroutine()
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
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+3 {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+3 {
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
