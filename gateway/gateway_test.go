package gateway_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"peerstripe"
	"peerstripe/gateway"
	"peerstripe/internal/node"
)

// testRing starts n in-process storage nodes and returns them with the
// seed address (mirrors the root package's helper; test helpers do not
// cross package boundaries).
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

// gateTest stands up a ring, a client, and an HTTP test server running
// the gateway, returning the client and the server's base URL.
func gateTest(t testing.TB, cfg gateway.Config, opts ...peerstripe.Option) (*peerstripe.Client, string) {
	t.Helper()
	_, seed := testRing(t, 3, 1<<30)
	cl := dialTest(t, seed, opts...)
	ts := httptest.NewServer(gateway.New(cl, cfg))
	t.Cleanup(ts.Close)
	return cl, ts.URL
}

func putObject(t testing.TB, base, name string, data []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/"+name, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT %s: %s", name, resp.Status)
	}
	if resp.Header.Get("ETag") == "" {
		t.Fatalf("PUT %s: no ETag on 201", name)
	}
}

func get(t testing.TB, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestGatewayPutGetRoundTrip pins the streaming write path: a
// multi-chunk object PUT through the gateway lands on the ring intact
// and comes back byte-identical on GET, with coherent metadata.
func TestGatewayPutGetRoundTrip(t *testing.T) {
	_, base := gateTest(t, gateway.Config{},
		peerstripe.WithCode("xor"), peerstripe.WithChunkCap(64<<10))

	data := make([]byte, 8*64<<10) // 8 chunks
	rand.New(rand.NewSource(21)).Read(data)
	putObject(t, base, "obj.bin", data)

	resp, body := get(t, base+"/obj.bin", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET: %s", resp.Status)
	}
	if !bytes.Equal(body, data) {
		t.Fatal("GET body differs from PUT body")
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(data)) {
		t.Errorf("Content-Length = %q, want %d", cl, len(data))
	}
	if resp.Header.Get("ETag") == "" || resp.Header.Get("Accept-Ranges") != "bytes" {
		t.Errorf("missing validators: ETag=%q Accept-Ranges=%q",
			resp.Header.Get("ETag"), resp.Header.Get("Accept-Ranges"))
	}
}

// TestGatewayColdGetSwitchesToChunks pins how the gateway's copy loop
// meets File's two read regimes: the first ReadAt of a cold full-object
// GET is a random access — at most one block range — and every later
// one continues it, so the rest of the object is fetched and cached
// chunk by chunk; a cold ranged GET smaller than the copy buffer moves
// one block range and caches nothing.
func TestGatewayColdGetSwitchesToChunks(t *testing.T) {
	cl, base := gateTest(t, gateway.Config{},
		peerstripe.WithCode("xor"), peerstripe.WithChunkCap(512<<10))
	ranges := func() int64 { return cl.Metrics().Counters["ps_client_range_reads_total"] }

	data := make([]byte, 4*512<<10) // 4 chunks
	rand.New(rand.NewSource(23)).Read(data)
	putObject(t, base, "cold.bin", data)

	resp, body := get(t, base+"/cold.bin", map[string]string{"Range": "bytes=600000-664999"})
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, data[600000:665000]) {
		t.Fatalf("cold ranged GET: %s, right bytes %v", resp.Status, bytes.Equal(body, data[600000:665000]))
	}
	if got, held := ranges(), cl.CacheStats().Bytes; got != 1 || held != 0 {
		t.Fatalf("cold ranged GET moved %d block ranges and cached %d bytes, want 1 and 0", got, held)
	}

	resp, body = get(t, base+"/cold.bin", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
		t.Fatalf("cold full GET: %s, right bytes %v", resp.Status, bytes.Equal(body, data))
	}
	if got := ranges() - 1; got > 1 {
		t.Fatalf("cold full GET moved %d block ranges before switching to chunks, want at most 1", got)
	}
	if held := cl.CacheStats().Bytes; held != int64(len(data)) {
		t.Fatalf("cold full GET left %d bytes cached, want the object's %d", held, len(data))
	}

	before := ranges()
	get(t, base+"/cold.bin", map[string]string{"Range": "bytes=600000-664999"})
	if got := ranges() - before; got != 0 {
		t.Fatalf("ranged GET of a cached chunk moved %d block ranges", got)
	}
}

// TestGatewayRangeMatrix drives the Range grammar against a live
// object: first/middle/tail/suffix slices come back as 206 with exact
// bytes and Content-Range, unsatisfiable starts are 416, and malformed
// or multi-range headers fall back to the full 200 representation.
func TestGatewayRangeMatrix(t *testing.T) {
	_, base := gateTest(t, gateway.Config{},
		peerstripe.WithCode("xor"), peerstripe.WithChunkCap(64<<10))

	size := 3*64<<10 + 100 // chunk-unaligned on purpose
	data := make([]byte, size)
	rand.New(rand.NewSource(22)).Read(data)
	putObject(t, base, "ranged.bin", data)

	cases := []struct {
		spec   string
		status int
		off, n int
		cr     string // expected Content-Range, "" = none
	}{
		{"bytes=0-99", 206, 0, 100, fmt.Sprintf("bytes 0-99/%d", size)},
		{"bytes=0-0", 206, 0, 1, fmt.Sprintf("bytes 0-0/%d", size)},
		{"bytes=70000-130000", 206, 70000, 60001, fmt.Sprintf("bytes 70000-130000/%d", size)}, // crosses a chunk seam
		{fmt.Sprintf("bytes=%d-", size-100), 206, size - 100, 100, fmt.Sprintf("bytes %d-%d/%d", size-100, size-1, size)},
		{"bytes=-100", 206, size - 100, 100, fmt.Sprintf("bytes %d-%d/%d", size-100, size-1, size)},
		{fmt.Sprintf("bytes=-%d", 10*size), 206, 0, size, fmt.Sprintf("bytes 0-%d/%d", size-1, size)},                          // over-long suffix clamps
		{fmt.Sprintf("bytes=190000-%d", 10*size), 206, 190000, size - 190000, fmt.Sprintf("bytes 190000-%d/%d", size-1, size)}, // end past size clamps
		{fmt.Sprintf("bytes=%d-", size), 416, 0, 0, fmt.Sprintf("bytes */%d", size)},
		{fmt.Sprintf("bytes=%d-%d", 2*size, 3*size), 416, 0, 0, fmt.Sprintf("bytes */%d", size)},
		{"bytes=garbage", 200, 0, size, ""},
		{"bytes=5-2", 200, 0, size, ""},                       // end before start: ignored
		{fmt.Sprintf("bytes=%d-2", 2*size), 200, 0, size, ""}, // ...also past the end: malformed, not 416
		{"bytes=0-1,50-60", 200, 0, size, ""},                 // multi-range unsupported: full body
		{"chapters=1-2", 200, 0, size, ""},                    // unknown unit: ignored
	}
	for _, tc := range cases {
		resp, body := get(t, base+"/ranged.bin", map[string]string{"Range": tc.spec})
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.spec, resp.StatusCode, tc.status)
			continue
		}
		if cr := resp.Header.Get("Content-Range"); cr != tc.cr {
			t.Errorf("%s: Content-Range %q, want %q", tc.spec, cr, tc.cr)
		}
		if tc.status == 416 {
			continue
		}
		if !bytes.Equal(body, data[tc.off:tc.off+tc.n]) {
			t.Errorf("%s: body is not bytes [%d, %d)", tc.spec, tc.off, tc.off+tc.n)
		}
	}
}

// TestGatewayHeadMatchesGet pins HEAD/GET parity: identical status and
// entity headers, no body — for the full object and for a Range.
func TestGatewayHeadMatchesGet(t *testing.T) {
	_, base := gateTest(t, gateway.Config{},
		peerstripe.WithCode("xor"), peerstripe.WithChunkCap(64<<10))
	data := make([]byte, 100000)
	rand.New(rand.NewSource(23)).Read(data)
	putObject(t, base, "head.bin", data)

	for _, rng := range []string{"", "bytes=100-199", "bytes=-1"} {
		hdr := map[string]string{}
		if rng != "" {
			hdr["Range"] = rng
		}
		getResp, _ := get(t, base+"/head.bin", hdr)
		req, _ := http.NewRequest(http.MethodHead, base+"/head.bin", nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		headResp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(headResp.Body)
		headResp.Body.Close()

		if headResp.StatusCode != getResp.StatusCode {
			t.Errorf("range %q: HEAD %d vs GET %d", rng, headResp.StatusCode, getResp.StatusCode)
		}
		if len(body) != 0 {
			t.Errorf("range %q: HEAD returned %d body bytes", rng, len(body))
		}
		for _, h := range []string{"ETag", "Content-Length", "Content-Range", "Accept-Ranges", "Content-Type"} {
			if hv, gv := headResp.Header.Get(h), getResp.Header.Get(h); hv != gv {
				t.Errorf("range %q: header %s: HEAD %q vs GET %q", rng, h, hv, gv)
			}
		}
	}
}

// TestGatewayConditional pins the validator flows: If-None-Match hits
// return 304 with no body, misses return the object, and an If-Range
// with a stale tag disables the Range instead of serving a torn slice.
func TestGatewayConditional(t *testing.T) {
	_, base := gateTest(t, gateway.Config{},
		peerstripe.WithCode("xor"), peerstripe.WithChunkCap(64<<10))
	data := make([]byte, 50000)
	rand.New(rand.NewSource(24)).Read(data)
	putObject(t, base, "cond.bin", data)

	resp, _ := get(t, base+"/cond.bin", nil)
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on GET")
	}

	resp, body := get(t, base+"/cond.bin", map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Errorf("If-None-Match match: %d with %d body bytes, want 304 empty", resp.StatusCode, len(body))
	}
	resp, _ = get(t, base+"/cond.bin", map[string]string{"If-None-Match": "*"})
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match *: %d, want 304", resp.StatusCode)
	}
	resp, body = get(t, base+"/cond.bin", map[string]string{"If-None-Match": `"deadbeefdeadbeef"`})
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
		t.Errorf("If-None-Match miss: %d, want 200 with full body", resp.StatusCode)
	}

	resp, body = get(t, base+"/cond.bin", map[string]string{"Range": "bytes=0-9", "If-Range": etag})
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, data[:10]) {
		t.Errorf("If-Range current: %d with %d bytes, want 206 with 10", resp.StatusCode, len(body))
	}
	resp, body = get(t, base+"/cond.bin", map[string]string{"Range": "bytes=0-9", "If-Range": `"deadbeefdeadbeef"`})
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
		t.Errorf("If-Range stale: %d with %d bytes, want 200 full", resp.StatusCode, len(body))
	}
}

// TestGatewayErrors pins the error mapping and method handling: absent
// objects are 404, chunked PUTs are 411, oversized PUTs are 413,
// unsupported methods are 405, and a dead ring is 503.
func TestGatewayErrors(t *testing.T) {
	servers, seed := testRing(t, 3, 1<<30)
	cl := dialTest(t, seed, peerstripe.WithCode("xor"))
	ts := httptest.NewServer(gateway.New(cl, gateway.Config{MaxObjectBytes: 1000}))
	defer ts.Close()

	resp, _ := get(t, ts.URL+"/nope.bin", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET missing: %d, want 404", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET empty name: %d, want 404", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/chunked.bin", io.NopCloser(bytes.NewReader(make([]byte, 10))))
	req.ContentLength = -1 // forces chunked transfer encoding
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusLengthRequired {
		t.Errorf("chunked PUT: %d, want 411", resp.StatusCode)
	}

	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/big.bin", bytes.NewReader(make([]byte, 2000)))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized PUT: %d, want 413", resp.StatusCode)
	}

	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/x", bytes.NewReader(nil))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") == "" {
		t.Errorf("POST: %d (Allow %q), want 405 with Allow", resp.StatusCode, resp.Header.Get("Allow"))
	}

	// Kill the ring out from under the gateway: requests become 503.
	for _, s := range servers {
		s.Close()
	}
	resp, _ = get(t, ts.URL+"/nope.bin", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("dead ring GET: %d, want 503", resp.StatusCode)
	}
}

// TestGatewayDelete pins the delete flow: 204 on success, then 404 on
// both a re-GET and a re-DELETE.
func TestGatewayDelete(t *testing.T) {
	_, base := gateTest(t, gateway.Config{},
		peerstripe.WithCode("xor"), peerstripe.WithChunkCap(64<<10))
	putObject(t, base, "del.bin", []byte("short-lived"))

	req, _ := http.NewRequest(http.MethodDelete, base+"/del.bin", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %d, want 204", resp.StatusCode)
	}
	getResp, _ := get(t, base+"/del.bin", nil)
	if getResp.StatusCode != http.StatusNotFound {
		t.Errorf("GET after DELETE: %d, want 404", getResp.StatusCode)
	}
	resp, err = http.DefaultClient.Do(req.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("second DELETE: %d, want 404", resp.StatusCode)
	}
}

// TestGatewayHerdDecodesOnce is the ISSUE 9 acceptance test: 64 HTTP
// clients hammering one cold multi-chunk object decode each chunk
// exactly once — the shared singleflight cache collapses the herd, and
// every client still gets the exact bytes.
func TestGatewayHerdDecodesOnce(t *testing.T) {
	const chunks = 8
	cl, base := gateTest(t, gateway.Config{},
		peerstripe.WithCode("xor"), peerstripe.WithChunkCap(64<<10))

	data := make([]byte, chunks*64<<10)
	rand.New(rand.NewSource(25)).Read(data)
	putObject(t, base, "hot.bin", data)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(base + "/hot.bin")
			if err != nil {
				errs <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
				errs <- fmt.Errorf("herd GET: status %d, %d bytes", resp.StatusCode, len(body))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := cl.CacheStats()
	if st.Decodes != chunks {
		t.Errorf("64-client herd ran %d decodes, want %d (one per chunk)", st.Decodes, chunks)
	}
	if st.Hits == 0 {
		t.Error("herd recorded no cache hits")
	}
}

// TestGatewayHotPromotion pins the promotion automation: once an
// object's GET count crosses HotAfter, the gateway asynchronously
// places full-copy replicas (visible in Stats), and reads keep
// returning the exact bytes afterwards.
func TestGatewayHotPromotion(t *testing.T) {
	_, seed := testRing(t, 4, 1<<30)
	cl := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(64<<10))
	gw := gateway.New(cl, gateway.Config{HotAfter: 3, HotCopies: 2})
	ts := httptest.NewServer(gw)
	defer ts.Close()

	data := make([]byte, 3*64<<10)
	rand.New(rand.NewSource(26)).Read(data)
	putObject(t, ts.URL, "popular.bin", data)

	for i := 0; i < 3; i++ {
		resp, body := get(t, ts.URL+"/popular.bin", nil)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
			t.Fatalf("GET %d: %d", i, resp.StatusCode)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for gw.Stats().Promotions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no promotion after crossing HotAfter")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A fresh client reads the promoted object via replicas; the bytes
	// must be identical either way.
	c2 := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(64<<10))
	f, err := c2.Open(context.Background(), "popular.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := io.ReadAll(f)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("promoted read: %v", err)
	}
}

// TestGatewayHeadDoesNotPromote pins that only GETs count toward the
// promotion threshold: a monitor HEADing an object all day must not
// spend fileSize × copies of ring storage. Any number of HEADs below
// threshold changes nothing; the next GET — not any earlier HEAD — is
// what crosses it.
func TestGatewayHeadDoesNotPromote(t *testing.T) {
	_, seed := testRing(t, 4, 1<<30)
	cl := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(64<<10))
	gw := gateway.New(cl, gateway.Config{HotAfter: 3, HotCopies: 2})
	ts := httptest.NewServer(gw)
	defer ts.Close()

	data := make([]byte, 2*64<<10)
	rand.New(rand.NewSource(27)).Read(data)
	putObject(t, ts.URL, "probed.bin", data)

	for i := 0; i < 2; i++ {
		if resp, _ := get(t, ts.URL+"/probed.bin", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %d: %d", i, resp.StatusCode)
		}
	}
	for i := 0; i < 10; i++ {
		resp, err := http.Head(ts.URL + "/probed.bin")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HEAD %d: %d", i, resp.StatusCode)
		}
	}
	// If HEADs counted, the threshold crossed long ago and the launch
	// decision was taken synchronously; give the async Promote ample
	// time to surface in Stats before declaring it never launched.
	time.Sleep(200 * time.Millisecond)
	if p := gw.Stats().Promotions; p != 0 {
		t.Fatalf("HEAD requests triggered %d promotions", p)
	}

	// The third GET crosses the threshold.
	if resp, _ := get(t, ts.URL+"/probed.bin", nil); resp.StatusCode != http.StatusOK {
		t.Fatal("final GET failed")
	}
	deadline := time.Now().Add(10 * time.Second)
	for gw.Stats().Promotions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no promotion after the GET count crossed HotAfter")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGatewayStatsAndHealth smoke-tests the operational endpoints.
func TestGatewayStatsAndHealth(t *testing.T) {
	_, base := gateTest(t, gateway.Config{},
		peerstripe.WithCode("xor"), peerstripe.WithChunkCap(64<<10))
	putObject(t, base, "s.bin", []byte("stats"))
	get(t, base+"/s.bin", nil)

	resp, body := get(t, base+"/-/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
	resp, body = get(t, base+"/-/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	for _, want := range []string{`"gets"`, `"puts"`, `"cache"`, `"bytes_out"`} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("stats JSON missing %s: %s", want, body)
		}
	}
}
