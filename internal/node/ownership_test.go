package node

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"peerstripe/internal/erasure"
	"peerstripe/internal/wire"
)

// streamRig is one node holding one block of blockLen bytes, and a
// client whose segments are small enough that the block streams.
func streamRig(t *testing.T, blockLen int) (srv *Server, c *Client, block []byte) {
	t.Helper()
	servers, _ := startRing(t, 1, 1<<30)
	srv = servers[0]
	block = make([]byte, blockLen)
	rand.New(rand.NewSource(int64(blockLen))).Read(block)
	if _, err := rpc(srv.Addr(), &wire.Request{Op: wire.OpStore, Name: "blk", Data: block}); err != nil {
		t.Fatal(err)
	}
	c = NewStaticClientCfg([]wire.NodeInfo{{ID: srv.ID, Addr: srv.Addr()}}, erasure.NewNull(),
		Config{Segment: 64 << 10, StreamWindow: 2})
	t.Cleanup(c.Close)
	return srv, c, block
}

// TestLiveStreamFetchReassembles reads a block through the segmented
// path: the buffer grows window by window with what arrives and ends up
// holding the block exactly.
func TestLiveStreamFetchReassembles(t *testing.T) {
	for _, n := range []int{1, 64 << 10, 64<<10 + 1, 1<<20 + 17} {
		srv, c, block := streamRig(t, n)
		got, err := c.streamFetchBlock(context.Background(), srv.Addr(), "blk", nil)
		if err != nil || !bytes.Equal(got, block) {
			t.Fatalf("%d-byte block: %v", n, err)
		}
	}
}

// TestLiveStreamFetchLyingSizeBoundedHeap fronts a holder with one that
// answers the first ranged read of a 1 MiB block claiming it is 1 GiB
// (wire.MaxBlockSize). The client may believe the claim only as far as
// the bytes that arrive: the fetch fails once the real block runs out,
// and the reads in flight together allocate about what the holder sent,
// not what it claimed.
func TestLiveStreamFetchLyingSizeBoundedHeap(t *testing.T) {
	srv, c, _ := streamRig(t, 1<<20)
	front := startFront(t, srv.Addr(), func(req *wire.Request, forward func(*wire.Request) *wire.Response) *wire.Response {
		resp := forward(req)
		if req.Op == wire.OpFetchStream && resp.OK {
			resp.Capacity = wire.MaxBlockSize
		}
		return resp
	})
	const fetches = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	errs := make([]error, fetches)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.streamFetchBlock(context.Background(), front, "blk", nil)
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	for i, err := range errs {
		if err == nil {
			t.Fatalf("fetch %d of a block whose holder lies about its size succeeded", i)
		}
	}
	// Each fetch holds at most twice the megabyte it was sent plus one
	// window; the whole process — client, front and holder — allocates
	// far less than one claimed size.
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d lying-size fetches allocated %.1f MiB in all", fetches, float64(grew)/(1<<20))
	if limit := uint64(64 << 20); grew > limit {
		t.Fatalf("%d fetches of a block claimed at %d bytes allocated %d bytes, want under %d", fetches, wire.MaxBlockSize, grew, limit)
	}
}
