package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"testing"

	"peerstripe/internal/erasure"
	"peerstripe/internal/wire"
)

// startPreBatchFront emulates a pre-PR4 node in front of backend: it
// speaks only single-shot v1 (one frame in, one frame out, close — no
// preamble handling) and rejects OpCapBatch, the streaming ops, and
// the failure-detection ops the way an old binary's handler would,
// proxying every other op to the real server.
func startPreBatchFront(t *testing.T, backend string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var req wire.Request
				if err := wire.ReadFrame(conn, &req); err != nil {
					return
				}
				var resp *wire.Response
				switch req.Op {
				case wire.OpCapBatch, wire.OpStoreStream, wire.OpFetchStream,
					wire.OpStoreWindow, wire.OpPing, wire.OpPingReq, wire.OpGossip:
					resp = &wire.Response{Err: fmt.Sprintf("unknown op %q", req.Op)}
				default:
					if r, err := wire.Call(backend, &req); err == nil || r != nil {
						resp = r
					} else {
						resp = &wire.Response{Err: err.Error()}
					}
				}
				_ = wire.WriteFrame(conn, resp)
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// TestLiveStoreFallsBackFromBatchProbe stores through a ring whose
// members all emulate pre-batching nodes: the client must degrade its
// batched OpCapBatch probe to the old per-name OpGetCap and the store
// and fetch must still round-trip.
func TestLiveStoreFallsBackFromBatchProbe(t *testing.T) {
	servers, _ := startRing(t, 4, 1<<30)
	ring := make([]wire.NodeInfo, len(servers))
	for i, s := range servers {
		ring[i] = wire.NodeInfo{ID: s.ID, Addr: startPreBatchFront(t, s.Addr())}
	}
	c := NewStaticClientCfg(ring, erasure.MustXOR(2), Config{ChunkCap: 64 << 10})
	defer c.Close()

	data := make([]byte, 200<<10)
	rand.New(rand.NewSource(17)).Read(data)
	if _, err := c.StoreFile("oldring.dat", data); err != nil {
		t.Fatalf("store against pre-batching ring: %v", err)
	}
	got, err := c.FetchFile("oldring.dat")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("fetch against pre-batching ring: %v", err)
	}
}

// TestStreamingClientAgainstPreStreamingRing pins the mixed-ring
// contract for the chunked-transfer ops: a client whose blocks exceed
// its streaming segment must attempt OpStoreStream, see the old node's
// graceful "unknown op", and fall back to single-frame transfers —
// bytes intact in both directions, and the fallback remembered so the
// probe is not repeated per block.
func TestStreamingClientAgainstPreStreamingRing(t *testing.T) {
	servers, _ := startRing(t, 4, 1<<30)
	ring := make([]wire.NodeInfo, len(servers))
	for i, s := range servers {
		ring[i] = wire.NodeInfo{ID: s.ID, Addr: startPreBatchFront(t, s.Addr())}
	}
	// 64 KiB chunks, 8 KiB segments: every 32 KiB block crosses the
	// segment bound, so the client tries to stream each one.
	c := NewStaticClientCfg(ring, erasure.MustXOR(2), Config{
		ChunkCap: 64 << 10,
		Segment:  8 << 10,
	})
	defer c.Close()

	data := make([]byte, 300<<10)
	rand.New(rand.NewSource(18)).Read(data)
	if _, err := c.StoreFile("oldstream.dat", data); err != nil {
		t.Fatalf("streaming store against pre-streaming ring: %v", err)
	}
	// The backends must have received no streaming op: everything
	// degraded to plain stores through the v1 fronts.
	for _, s := range servers {
		if s.StreamOps() != 0 {
			t.Fatalf("backend saw %d streaming ops through a pre-streaming front", s.StreamOps())
		}
	}
	got, err := c.FetchFile("oldstream.dat")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("fetch back through pre-streaming ring: %v", err)
	}
	// A partial-chunk read asks for a block range with OpFetchStream,
	// which these nodes refuse too: it must fall back to the whole
	// block, not fail as if the block were gone.
	part, err := c.FetchRange("oldstream.dat", 70_000, 5_000)
	if err != nil || !bytes.Equal(part, data[70_000:75_000]) {
		t.Fatalf("ranged read through pre-streaming ring: %v", err)
	}
	if c.met.rangeReads.Value() == 0 || c.met.rangeRebuilds.Value() != 0 {
		t.Fatalf("ranged read through pre-streaming ring: %d ranges, %d rebuilt; want >0 and 0",
			c.met.rangeReads.Value(), c.met.rangeRebuilds.Value())
	}
}
