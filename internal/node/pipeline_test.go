package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
	"peerstripe/internal/wire"
)

// victimFile searches the deterministic placement for a file name
// whose chunk-0 data-block-0 owner — the first source the hedged read
// path contacts — is survivable: it holds at most tolerance blocks of
// every chunk and at least one CAT replica lives elsewhere. Returns
// the name and the victim's ring index.
func victimFile(t *testing.T, ring []wire.NodeInfo, prefix string, chunks, m, tolerance, catReplicas int) (string, int) {
	t.Helper()
	ownerIdx := func(name string) int { return ownerIndex(ring, name) }
	for try := 0; try < 256; try++ {
		name := fmt.Sprintf("%s-%03d.dat", prefix, try)
		victim := ownerIdx(core.BlockName(name, 0, 0))
		if victim < 0 {
			continue
		}
		ok := true
		for ci := 0; ci < chunks && ok; ci++ {
			held := 0
			for e := 0; e < m; e++ {
				if ownerIdx(core.BlockName(name, ci, e)) == victim {
					held++
				}
			}
			if held > tolerance {
				ok = false
			}
		}
		if ok {
			catElsewhere := false
			for r := 0; r <= catReplicas; r++ {
				if ownerIdx(core.ReplicaName(core.CATName(name), r)) != victim {
					catElsewhere = true
				}
			}
			ok = catElsewhere
		}
		if ok {
			return name, victim
		}
	}
	t.Fatal("no survivable block-0 owner in deterministic placement — adjust node count or prefix")
	return "", -1
}

// TestLiveFetchSurvivesStalledSourceMidStream is the acceptance fault
// case for the pipelined read path: a source freezes mid-transfer of a
// streamed block — the connection stays open, no error ever surfaces —
// and the fetch must neither stall to the RPC timeout nor fail,
// because per-source progress tracking races a replacement stream as
// soon as the laggard misses a hedge tick.
func TestLiveFetchSurvivesStalledSourceMidStream(t *testing.T) {
	const (
		chunkCap   = 2 << 20
		segment    = 128 << 10
		size       = 4 << 20 // 2 chunks; 1 MiB blocks stream in 8 segments
		hedgeDelay = 40 * time.Millisecond
	)
	_, proxies, ring := proxiedRing(t, 4, 1<<30, 4242, 0)
	code := erasure.MustXOR(2)
	c := NewStaticClientCfg(ring, code, Config{
		ChunkCap:   chunkCap,
		Segment:    segment,
		HedgeDelay: hedgeDelay,
	})
	defer c.Close()

	name, victim := victimFile(t, ring, "stall", size/chunkCap,
		code.EncodedBlocks(), code.EncodedBlocks()-code.MinNeeded(), c.Config().CATReplicas)

	data := make([]byte, size)
	rand.New(rand.NewSource(31)).Read(data)
	cat, err := c.StoreFile(name, data)
	if err != nil {
		t.Fatal(err)
	}
	if got := cat.NumChunks(); got != size/chunkCap {
		t.Fatalf("layout drifted: %d chunks, victim selection assumed %d", got, size/chunkCap)
	}

	// Freeze the victim's response path a fraction of the way into its
	// first block stream: acks stop, bytes stop, the connection hangs.
	proxies[victim].stallResponsesAfter(64 << 10)

	start := time.Now()
	got, err := c.FetchFile(name)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("fetch with %s stalled mid-stream: %v", ring[victim].Addr, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetch with a stalled source returned wrong bytes")
	}
	// The victim owns a block in the first request wave, so the read
	// cannot have finished before one hedge tick fired…
	if elapsed < hedgeDelay {
		t.Fatalf("fetch finished in %v — the stall never engaged, the test proved nothing", elapsed)
	}
	// …and replacement must beat the stall-to-timeout alternative by a
	// wide margin (the RPC timeout here is wire.DefaultTimeout, 10s).
	if elapsed > 5*time.Second {
		t.Fatalf("fetch took %v with one stalled source — hedged replacement did not engage", elapsed)
	}
}

// TestLiveFetchSurvivesDeadSourceStreaming is the dead-source arm: the
// owner of the first-requested block goes dark between store and
// fetch, so every streamed read from it dies with a connection error
// and the fetch must promptly re-source the block rather than fail.
func TestLiveFetchSurvivesDeadSourceStreaming(t *testing.T) {
	const (
		chunkCap = 2 << 20
		segment  = 128 << 10
		size     = 4 << 20
	)
	_, proxies, ring := proxiedRing(t, 4, 1<<30, 777, 0)
	code := erasure.MustXOR(2)
	c := NewStaticClientCfg(ring, code, Config{
		ChunkCap:   chunkCap,
		Segment:    segment,
		HedgeDelay: 40 * time.Millisecond,
	})
	defer c.Close()

	name, victim := victimFile(t, ring, "dead", size/chunkCap,
		code.EncodedBlocks(), code.EncodedBlocks()-code.MinNeeded(), c.Config().CATReplicas)

	data := make([]byte, size)
	rand.New(rand.NewSource(32)).Read(data)
	if _, err := c.StoreFile(name, data); err != nil {
		t.Fatal(err)
	}

	proxies[victim].goDark()

	start := time.Now()
	got, err := c.FetchFile(name)
	if err != nil {
		t.Fatalf("fetch with %s dead: %v", ring[victim].Addr, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetch with a dead source returned wrong bytes")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fetch took %v with one dead source — failure replacement did not engage", elapsed)
	}
}

// TestLiveWindowedStoreThroughSlowSink drives the windowed store
// exchange into a sink whose every ack is late: the window must keep
// segments in flight ahead of the acks and the store must complete,
// not degrade into an ack-bound crawl or an error.
func TestLiveWindowedStoreThroughSlowSink(t *testing.T) {
	servers, proxies, ring := proxiedRing(t, 4, 1<<30, 99, 0)
	c := NewStaticClientCfg(ring, erasure.MustXOR(2), Config{
		ChunkCap: 256 << 10,
		Segment:  32 << 10, // 128 KiB blocks stream in 4 windowed segments
	})
	defer c.Close()

	// Every sink is slow, so the slow path is on the store's critical
	// path no matter where placement routes the blocks.
	for _, p := range proxies {
		p.throttleResponses(2 * time.Millisecond)
	}

	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(33)).Read(data)
	start := time.Now()
	if _, err := c.StoreFile("slowsink.dat", data); err != nil {
		t.Fatalf("windowed store through slow sinks: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("store took %v through 2ms-throttled sinks", elapsed)
	}

	var windowed int64
	for _, s := range servers {
		windowed += s.WindowOps()
	}
	if windowed == 0 {
		t.Fatal("no windowed op reached the backends — the store used another exchange")
	}

	got, err := c.FetchFile("slowsink.dat")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("fetch back through slow sinks: %v", err)
	}
}
