// bigcopy reproduces the §6.4 case study in miniature: a Condor-like
// scheduler runs the bigCopy application on a pool of machines, with
// application I/O transparently redirected into PeerStripe through the
// interposed library — here running against a real ring. The input is
// seeded through the public peerstripe API (streamed, erasure-coded,
// capacity-probed), then the interposed grid.IOLib reads and writes it
// over the same client. Part 2 prints the Table 4 sweep from the
// calibrated transfer model.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"

	"peerstripe"
	"peerstripe/internal/grid"
	"peerstripe/internal/trace"
)

func main() {
	ctx := context.Background()

	// Part 1: real bytes through the interposed I/O path over a live
	// ring. Form the ring and seed a 24 MB input file through the
	// public streaming API.
	var nodes []*peerstripe.Node
	seed := ""
	for i := 0; i < 6; i++ {
		n, err := peerstripe.ListenAndServe("127.0.0.1:0", 256<<20, seed, "")
		if err != nil {
			log.Fatal(err)
		}
		if seed == "" {
			seed = n.Addr()
		}
		nodes = append(nodes, n)
		defer n.Close()
	}

	client, err := peerstripe.Dial(ctx, seed,
		peerstripe.WithCode("xor"),
		peerstripe.WithChunkCap(4*trace.MB))
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	data := make([]byte, 24*trace.MB)
	rand.New(rand.NewSource(42)).Read(data)
	if _, err := client.Store(ctx, "input.bin", bytes.NewReader(data), int64(len(data))); err != nil {
		log.Fatal(err)
	}

	// The interposed library runs over the same client, so application
	// I/O lands on the live nodes.
	lib := grid.NewIOLib(client)

	sched := grid.NewScheduler(lib, 4)
	for i := 0; i < 3; i++ {
		sched.Submit(grid.BigCopyJob("input.bin", fmt.Sprintf("copy%d.bin", i), 1<<20))
	}
	for _, r := range sched.Drain() {
		status := "ok"
		if r.Err != nil {
			status = r.Err.Error()
		}
		fmt.Printf("machine %d ran %-28s %s\n", r.Machine, r.Job, status)
	}
	hits, misses := lib.CacheStats()
	fmt.Printf("lookup cache: %d hits, %d misses\n", hits, misses)
	if info, err := client.Stat(ctx, "copy0.bin"); err == nil {
		fmt.Printf("copy0.bin on the ring: %d bytes in %d chunks\n", info.Size, info.Chunks)
	}

	// Part 2: the Table 4 sweep on the 32-machine model.
	fmt.Println("\nTable 4 sweep (modelled times, seconds):")
	cluster := grid.NewCluster(7, 32)
	for _, gbs := range []int64{1, 4, 16, 64} {
		row := cluster.RunTable4([]int64{gbs * trace.GB})[0]
		whole := "N/A"
		if row.Whole.OK {
			whole = fmt.Sprintf("%.0fs", row.Whole.Seconds)
		}
		fmt.Printf("%4d GB: whole=%-8s fixed=%.0fs (%d chunks)  varying=%.0fs (%d chunks)\n",
			gbs, whole, row.Fixed.Seconds, row.Fixed.Chunks,
			row.Varying.Seconds, row.Varying.Chunks)
	}
}
