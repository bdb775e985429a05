package node

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
	"peerstripe/internal/ids"
	"peerstripe/internal/wire"
)

// hookReader calls hook once, just before it serves the read that
// starts at or after offset at — with whole-chunk reads, just before
// the producer is handed chunk at/chunkSize.
type hookReader struct {
	r    io.Reader
	off  int64
	at   int64
	hook func()
}

func (h *hookReader) Read(p []byte) (int, error) {
	if h.hook != nil && h.off >= h.at {
		h.hook()
		h.hook = nil
	}
	n, err := h.r.Read(p)
	h.off += int64(n)
	return n, err
}

// TestStorePipelineDepths runs the store pipeline, pipelineDepth
// chunks in flight, through sinks whose every ack is late, so uploads
// of one chunk are still reading its memory while the producer fills
// the next: a reader-backed store that recycles chunk buffers, a
// bytes-backed store that uploads from the caller's slice, a store
// cancelled mid-upload, and a store whose block upload fails. After
// each, everything committed reads back byte for byte. Under -race
// (make pipeline) the detector must see no write to a chunk buffer an
// upload still reads; and when the clients close, no goroutine of the
// pipeline is left. The one subtest is named after the fixed depth.
func TestStorePipelineDepths(t *testing.T) {
	t.Run(fmt.Sprintf("depth%d", pipelineDepth), testStorePipeline)
}

func testStorePipeline(t *testing.T) {
	const (
		chunkCap = 64 << 10
		segment  = 16 << 10         // 32 KiB blocks go as two windowed segments
		size     = 9*chunkCap + 333 // ten chunks, the last of odd length
	)
	servers, proxies, ring := proxiedRing(t, 4, 1<<30, 7, 0)
	for _, p := range proxies {
		p.throttleResponses(time.Millisecond)
	}
	// The same placement, addressed past the proxies: what is
	// committed stays readable after a proxy has gone dark.
	direct := make([]wire.NodeInfo, len(ring))
	for i, n := range ring {
		direct[i] = wire.NodeInfo{ID: n.ID, Addr: servers[i].Addr()}
	}
	base := runtime.NumGoroutine()

	cfg := Config{ChunkCap: chunkCap, Segment: segment}
	code := erasure.MustXOR(2)
	c := NewStaticClientCfg(ring, code, cfg)
	dc := NewStaticClientCfg(direct, code, cfg)
	ctx := context.Background()
	plan := core.PlanChunkSizes(size, chunkCap)
	object := func(seed int64) []byte {
		b := make([]byte, size)
		rand.New(rand.NewSource(seed)).Read(b)
		return b
	}
	readBack := func(cl *Client, name string, want []byte) {
		t.Helper()
		got, err := cl.FetchFileCtx(ctx, name)
		if err != nil {
			t.Fatalf("fetch %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fetch %s: bytes differ from what was stored", name)
		}
	}
	absent := func(cl *Client, name string) {
		t.Helper()
		if _, err := cl.LoadCATCtx(ctx, name); !errors.Is(err, ErrNotFound) {
			t.Fatalf("aborted store of %s left a CAT behind (load: %v)", name, err)
		}
	}

	fromReader, fromBytes := object(1), object(2)
	// struct{io.Reader} hides bytes.Reader's other methods: the
	// pipeline sees a plain stream.
	if _, err := c.StoreReader(ctx, "reader.dat", struct{ io.Reader }{bytes.NewReader(fromReader)}, plan); err != nil {
		t.Fatalf("StoreReader: %v", err)
	}
	pristine := append([]byte(nil), fromBytes...)
	if _, err := c.StoreBytes(ctx, "bytes.dat", fromBytes, plan); err != nil {
		t.Fatalf("StoreBytes: %v", err)
	}
	if !bytes.Equal(fromBytes, pristine) {
		t.Fatal("StoreBytes modified the caller's data")
	}
	readBack(c, "reader.dat", fromReader)
	readBack(c, "bytes.dat", fromBytes)

	// Cancel as the producer is handed chunk 5: chunk 4's uploads
	// are in flight.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hr := &hookReader{r: bytes.NewReader(object(3)), at: 5 * chunkCap, hook: cancel}
	if _, err := c.StoreReader(cctx, "cancelled.dat", hr, plan); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled StoreReader returned %v, want context.Canceled", err)
	}
	absent(c, "cancelled.dat")
	readBack(c, "reader.dat", fromReader)
	again := object(4)
	if _, err := c.StoreReader(ctx, "cancelled.dat", bytes.NewReader(again), plan); err != nil {
		t.Fatalf("re-store after cancel: %v", err)
	}
	readBack(c, "cancelled.dat", again)

	// Fail a block upload: the owner of chunk 5's first block
	// goes dark as the producer is handed chunk 5. It must
	// already be in the probe cache, so that what fails is the
	// upload and not the probe.
	name, victim := "", -1
	for try := 0; try < 64 && victim < 0; try++ {
		name = fmt.Sprintf("failing-%02d.dat", try)
		v := ownerIndex(ring, core.BlockName(name, 5, 0))
		for ci := 0; ci < 4 && victim < 0; ci++ {
			for e := 0; e < code.EncodedBlocks(); e++ {
				if ownerIndex(ring, core.BlockName(name, ci, e)) == v {
					victim = v
				}
			}
		}
	}
	if victim < 0 {
		t.Fatal("no file name places an early block on chunk 5's first owner")
	}
	hr = &hookReader{r: bytes.NewReader(object(5)), at: 5 * chunkCap, hook: proxies[victim].goDark}
	if _, err := c.StoreReader(ctx, name, hr, plan); !errors.Is(err, ErrRingUnavailable) {
		t.Fatalf("StoreReader into a dark node returned %v, want ErrRingUnavailable", err)
	}
	absent(dc, name)
	readBack(dc, "reader.dat", fromReader)
	readBack(dc, "bytes.dat", fromBytes)
	readBack(dc, "cancelled.dat", again)

	c.Close()
	dc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the clients closed, %d before they were made", n, base)
	}
}

// ownerIndex returns the ring index of the node that owns name.
func ownerIndex(ring []wire.NodeInfo, name string) int {
	o, err := OwnerOf(ring, ids.FromName(name))
	if err != nil {
		return -1
	}
	for i, n := range ring {
		if n.ID == o.ID {
			return i
		}
	}
	return -1
}
