package node

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"peerstripe/internal/erasure"
	"peerstripe/internal/wire"
)

// TestLargeBlockStreamRoundTrip moves a single block larger than
// wire.MaxFrame through the transport: the store must ride
// OpStoreWindow segments (a single frame cannot carry it), and the
// fetch reassembles the block from ranged OpFetch parts.
func TestLargeBlockStreamRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("65 MiB transfer; skipped with -short")
	}
	srv, err := NewServer("127.0.0.1:0", 256<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ring := []wire.NodeInfo{{ID: srv.ID, Addr: srv.Addr()}}
	c := NewStaticClientCfg(ring, erasure.NewNull(), Config{})
	defer c.Close()

	const blockSize = wire.MaxFrame + (1 << 20) // cannot fit one frame
	data := make([]byte, blockSize)
	rand.New(rand.NewSource(13)).Read(data)

	ctx := context.Background()
	if err := c.storeBlock(ctx, "big_0_0", data); err != nil {
		t.Fatalf("streamed store of %d bytes: %v", blockSize, err)
	}
	if ops := srv.WindowOps(); ops == 0 {
		t.Fatal("over-frame block stored without a streaming op")
	}
	got := make([]byte, blockSize)
	if err := c.readRange(ctx, srv.Addr(), "big_0_0", 0, got, nil); err != nil {
		t.Fatalf("streamed fetch: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("over-frame block round trip mismatch")
	}
}

// TestStreamStoreSegmentErrors drives the server's staging validation
// at the wire level: an over-capacity block and inconsistent segments
// are refused without poisoning the node, and retried segments — the
// transport's one-retry semantics — are re-acknowledged mid-stream and
// after the commit alike.
func TestStreamStoreSegmentErrors(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", 1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()
	seg := func(name string, stream uint64, seq, total int, size, segSize int64, data []byte) (*wire.Response, error) {
		return rpc(addr, wire.EncodeStoreWindow(name, wire.WindowSegment{
			Stream: stream, Seq: seq, Total: total, Size: size, Seg: segSize,
		}, data))
	}

	// Declared size beyond the node's capacity is refused on the first
	// segment, before anything is staged or further segments ship.
	if _, err := seg("b_0_0", 7, 0, 2, 4<<20, 2<<20, make([]byte, 2<<20)); err == nil {
		t.Fatal("over-capacity stream accepted")
	}
	srv.mu.Lock()
	open := len(srv.stages)
	srv.mu.Unlock()
	if open != 0 {
		t.Fatalf("an over-capacity stream left %d stages open", open)
	}

	// A duplicate of the just-applied segment (its ack was lost, the
	// pool re-sent it) is re-acknowledged without corrupting the stage.
	payload := []byte("hello streaming world") // 21 bytes: segments of 11 and 10
	if _, err := seg("ok_0_0", 8, 0, 2, int64(len(payload)), 11, payload[:11]); err != nil {
		t.Fatal(err)
	}
	if _, err := seg("ok_0_0", 8, 0, 2, int64(len(payload)), 11, payload[:11]); err != nil {
		t.Fatalf("retried mid-stream segment refused: %v", err)
	}
	// A segment that disagrees with the opened geometry is a real
	// inconsistency and kills the stream.
	if _, err := seg("ok_0_0", 8, 3, 4, int64(len(payload)), 6, payload[18:]); err == nil {
		t.Fatal("inconsistent segment accepted")
	}
	if _, err := rpc(addr, &wire.Request{Op: wire.OpFetch, Name: "ok_0_0"}); err == nil {
		t.Fatal("half-streamed block fetchable")
	}

	// A fresh, correct stream works after the abuse, and its retried
	// final segment is re-acknowledged after the commit.
	if _, err := seg("ok_0_0", 9, 0, 2, int64(len(payload)), 11, payload[:11]); err != nil {
		t.Fatal(err)
	}
	if _, err := seg("ok_0_0", 9, 1, 2, int64(len(payload)), 11, payload[11:]); err != nil {
		t.Fatal(err)
	}
	if _, err := seg("ok_0_0", 9, 1, 2, int64(len(payload)), 11, payload[11:]); err != nil {
		t.Fatalf("retried final segment refused after commit: %v", err)
	}
	resp, err := rpc(addr, &wire.Request{Op: wire.OpFetch, Name: "ok_0_0"})
	if err != nil || !bytes.Equal(resp.Data, payload) {
		t.Fatalf("committed stream not fetchable: %v", err)
	}
}
