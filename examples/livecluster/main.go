// livecluster runs the real implementation end-to-end in one process
// through the public API: eight TCP storage nodes form a ring and a
// client streams in a file far larger than any single wire frame —
// blocks go up as bounded OpStoreWindow segments and come back in
// owner-group frames, the client never holding more than a chunk in
// memory — then reads it back
// through the io.Reader surface, verifies every byte by hash, and
// prints the per-node storage spread (§5, actual bytes over actual
// multiplexed sockets).
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"log"
	"math/rand"
	"time"

	"peerstripe"
)

const fileSize = 64 << 20 // streams through; never buffered whole

func main() {
	ctx := context.Background()

	// 1. Form a ring of 8 nodes, 48 MB contribution each.
	var nodes []*peerstripe.Node
	seed := ""
	for i := 0; i < 8; i++ {
		n, err := peerstripe.ListenAndServe("127.0.0.1:0", 48<<20, seed, "")
		if err != nil {
			log.Fatal(err)
		}
		if seed == "" {
			seed = n.Addr()
		}
		nodes = append(nodes, n)
		defer n.Close()
	}
	fmt.Printf("ring of %d nodes, seed %s\n", len(nodes), seed)

	// 2. Dial with an aggressive streaming configuration: 8 MB chunks,
	// 1 MB wire segments — every 4 MB encoded block crosses the
	// segment bound and streams.
	client, err := peerstripe.Dial(ctx, seed,
		peerstripe.WithCode("xor"),
		peerstripe.WithChunkCap(8<<20),
		peerstripe.WithSegment(1<<20),
		peerstripe.WithHedgeDelay(50*time.Millisecond))
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// 3. Stream 64 MB in from a generated source, hashing on the way.
	src := io.LimitReader(rand.New(rand.NewSource(7)), fileSize)
	inHash := sha256.New()
	start := time.Now()
	info, err := client.Store(ctx, "stream.dat", io.TeeReader(src, inHash), fileSize)
	if err != nil {
		log.Fatal(err)
	}
	el := time.Since(start)
	fmt.Printf("streamed in %s: %d bytes, %d chunks, %v (%.1f MB/s)\n",
		info.Name, info.Size, info.Chunks, el.Round(time.Millisecond),
		float64(info.Size)/1e6/el.Seconds())

	// 4. Stream it back out through the io.Reader surface and compare
	// content hashes — again without buffering the file.
	f, err := client.Open(ctx, "stream.dat")
	if err != nil {
		log.Fatal(err)
	}
	outHash := sha256.New()
	start = time.Now()
	n, err := io.Copy(outHash, f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	el = time.Since(start)
	fmt.Printf("streamed out %d bytes in %v (%.1f MB/s), hash match: %v\n",
		n, el.Round(time.Millisecond), float64(n)/1e6/el.Seconds(),
		bytes.Equal(inHash.Sum(nil), outHash.Sum(nil)))

	// 5. The storage spread: every node carries a share of the stripe.
	for _, addr := range client.Nodes() {
		st, err := client.StatNode(ctx, addr)
		if err != nil {
			fmt.Printf("%-21s unreachable: %v\n", addr, err)
			continue
		}
		fmt.Printf("%-21s used %5.1f MB in %d blocks\n", st.Addr, float64(st.Used)/1e6, st.Blocks)
	}
}
