package gateway_test

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"peerstripe"
	"peerstripe/gateway"
)

// benchGateway stands up a ring, gateway, and one stored object for
// the benchmark arms, returning the object's URL.
func benchGateway(b *testing.B, objectSize int64) string {
	b.Helper()
	_, seed := testRing(b, 3, 1<<30)
	cl := dialTest(b, seed,
		peerstripe.WithCode("xor"),
		peerstripe.WithChunkCap(256<<10))
	ts := httptest.NewServer(gateway.New(cl, gateway.Config{}))
	b.Cleanup(ts.Close)

	data := make([]byte, objectSize)
	rand.New(rand.NewSource(41)).Read(data)
	putObject(b, ts.URL, "bench.bin", data)
	return ts.URL + "/bench.bin"
}

// BenchmarkGatewayGet measures full-object GET throughput through the
// HTTP gateway against a live loopback ring — request parsing, the
// shared chunk cache (warm after the first iteration), and the
// streamed response copy.
func BenchmarkGatewayGet(b *testing.B) {
	const objectSize = 4 << 20
	url := benchGateway(b, objectSize)
	b.SetBytes(objectSize)
	for b.Loop() {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || n != objectSize {
			b.Fatalf("GET: %d bytes, %v", n, err)
		}
	}
}

// BenchmarkGatewayGetRanged measures small ranged GETs — the
// per-request overhead path: open, one cached chunk read, 206
// assembly — at 64 KiB per request.
func BenchmarkGatewayGetRanged(b *testing.B) {
	const (
		objectSize = 4 << 20
		span       = 64 << 10
	)
	url := benchGateway(b, objectSize)
	rng := rand.New(rand.NewSource(42))
	b.SetBytes(span)
	for b.Loop() {
		off := rng.Int63n(objectSize - span)
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+span-1))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusPartialContent || n != span {
			b.Fatalf("ranged GET: status %d, %d bytes, %v", resp.StatusCode, n, err)
		}
	}
}
