package node

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"peerstripe/internal/erasure"
	"peerstripe/internal/wire"
)

// streamRig is one node holding one block of blockLen bytes, and a
// client whose segments are small enough that the block is read in
// several parts.
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
		Config{Segment: 64 << 10})
	t.Cleanup(c.Close)
	return srv, c, block
}

// TestLiveStreamFetchReassembles reads a block as ranged parts of one
// segment each, a window of them in flight: the block comes back
// exactly, one part per segment or piece of one — across a block of one
// byte, of exactly one segment, and of a segment and a bit.
func TestLiveStreamFetchReassembles(t *testing.T) {
	for _, n := range []int{1, 64 << 10, 64<<10 + 1, 1<<20 + 17} {
		srv, c, block := streamRig(t, n)
		reads := srv.FetchOps()
		got := make([]byte, n)
		if err := c.readRange(context.Background(), srv.Addr(), "blk", 0, got, nil); err != nil || !bytes.Equal(got, block) {
			t.Fatalf("%d-byte block: %v", n, err)
		}
		if want := int64((n + 64<<10 - 1) / (64 << 10)); srv.FetchOps()-reads != want {
			t.Fatalf("%d-byte block read in %d parts, want %d", n, srv.FetchOps()-reads, want)
		}
	}
}
