// Command psgate serves a PeerStripe ring over HTTP: GET/HEAD/PUT/
// DELETE on /<name>, with Range requests, ETags and conditional GETs,
// streamed bodies in both directions, and a shared singleflight chunk
// cache across all requests. See docs/GATEWAY.md.
//
//	psgate -listen 127.0.0.1:8080 -ring 127.0.0.1:7001
//	curl -T big.bin http://127.0.0.1:8080/big.bin
//	curl -r 0-1023 http://127.0.0.1:8080/big.bin
//
// /-/healthz reports ring reachability; /-/stats reports request and
// cache counters as JSON.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"peerstripe"
	"peerstripe/gateway"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:8080", "HTTP address to serve on")
		ring      = flag.String("ring", "", "address of any ring member (required)")
		code      = flag.String("code", "xor", "erasure code for stores (null, xor, online, rs)")
		chunkCap  = flag.Int64("chunk-cap", 0, "chunk size cap in bytes (0 = client default)")
		cache     = flag.Int64("cache", peerstripe.DefaultChunkCache, "decoded-chunk cache bound in bytes (0 disables retention)")
		timeout   = flag.Duration("timeout", 0, "per-RPC timeout (0 = client default)")
		maxObject = flag.Int64("max-object", 0, "largest accepted PUT in bytes (0 = unlimited)")
	)
	flag.Parse()
	if *ring == "" {
		log.Fatal("psgate: -ring is required")
	}

	opts := []peerstripe.Option{
		peerstripe.WithCode(*code),
		peerstripe.WithChunkCache(*cache),
	}
	if *chunkCap > 0 {
		opts = append(opts, peerstripe.WithChunkCap(*chunkCap))
	}
	if *timeout > 0 {
		opts = append(opts, peerstripe.WithTimeout(*timeout))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	cl, err := peerstripe.Dial(ctx, *ring, opts...)
	cancel()
	if err != nil {
		log.Fatalf("psgate: %v", err)
	}
	defer cl.Close()

	gw := gateway.New(cl, gateway.Config{
		MaxObjectBytes: *maxObject,
		Logf:           log.Printf,
	})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("psgate: listen %s: %v", *listen, err)
	}
	srv := &http.Server{Handler: gw, ReadHeaderTimeout: 10 * time.Second}
	log.Printf("psgate: serving ring %s on http://%s", *ring, ln.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		shCtx, shCancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer shCancel()
		srv.Shutdown(shCtx) //nolint:errcheck
	}()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("psgate: %v", err)
	}
}
