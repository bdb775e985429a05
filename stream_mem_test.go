package peerstripe_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"peerstripe"
	"peerstripe/internal/wire"
)

// heapSampler polls HeapAlloc every 2ms until stopped, tracking the
// peak — a whole-file buffer shows up no matter when it is allocated.
type heapSampler struct {
	base uint64
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	hs := &heapSampler{base: base.HeapAlloc, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(hs.done)
		var ms runtime.MemStats
		for {
			select {
			case <-hs.stop:
				return
			case <-time.After(2 * time.Millisecond):
				runtime.ReadMemStats(&ms)
				for {
					p := hs.peak.Load()
					if ms.HeapAlloc <= p || hs.peak.CompareAndSwap(p, ms.HeapAlloc) {
						break
					}
				}
			}
		}
	}()
	return hs
}

// growth stops the sampler and returns the peak heap growth in bytes.
func (hs *heapSampler) growth() int64 {
	close(hs.stop)
	<-hs.done
	return int64(hs.peak.Load()) - int64(hs.base)
}

// TestStoreBoundedMemoryAtFourFrames is the acceptance test for the
// streaming store: a file of 4× wire.MaxFrame (256 MiB) goes through
// Store from a generated io.Reader while the peak heap stays a small
// multiple of the chunk size — far below the file size — proving the
// client never buffers the file, and the transfer demonstrably rides
// the segment stream (server counters). The in-process servers run in
// discard mode so their copy of the data does not pollute the
// client-side heap measurement.
func TestStoreBoundedMemoryAtFourFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("256 MiB streaming store; skipped with -short")
	}
	if raceEnabled {
		t.Skip("heap accounting distorted under the race detector")
	}

	const (
		fileSize = 4 * int64(wire.MaxFrame) // 256 MiB: ≥ 4× a frame
		chunkCap = 8 << 20                  // 12 MiB of encoded blocks per chunk at (2,3)
		segment  = 1 << 20                  // 4 MiB blocks stream in 4 segments
		heapCap  = 128 << 20                // fail if peak heap grows by ≥ half the file
	)

	servers, seed := testRing(t, 3, 2*fileSize)
	for _, s := range servers {
		s.SetDiscard(true)
	}
	c := dialTest(t, seed,
		peerstripe.WithCode("xor"),
		peerstripe.WithChunkCap(chunkCap),
		peerstripe.WithSegment(segment))

	hs := startHeapSampler()
	src := io.LimitReader(rand.New(rand.NewSource(11)), fileSize)
	info, err := c.Store(context.Background(), "bigstream.dat", src, fileSize)
	growth := hs.growth()
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != fileSize {
		t.Fatalf("stored %d of %d bytes", info.Size, fileSize)
	}

	if ops := totalStreamOps(servers) + totalWindowOps(servers); ops < 100 {
		t.Fatalf("only %d streaming segment ops served — the store did not stream", ops)
	}
	if growth > heapCap {
		t.Fatalf("peak heap grew %d MiB during a %d MiB store (cap %d MiB) — the file is being buffered",
			growth>>20, fileSize>>20, int64(heapCap)>>20)
	}
	t.Logf("peak heap growth %d MiB for a %d MiB streamed store (%d stream + %d windowed ops)",
		growth>>20, fileSize>>20, totalStreamOps(servers), totalWindowOps(servers))
}

// TestWindowedStoreBoundedMemory is the bounded-memory proof for the
// windowed pipeline: with the window and pipeline depth pinned
// explicitly, the peak heap during a 128 MiB streamed store must stay
// a small multiple of pipelineDepth×chunk + window×segment — not
// O(file) — while the transfer demonstrably rides the windowed
// exchange (WindowOps counters, not just the in-order stream).
func TestWindowedStoreBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("128 MiB streaming store; skipped with -short")
	}
	if raceEnabled {
		t.Skip("heap accounting distorted under the race detector")
	}

	const (
		fileSize = int64(128 << 20)
		chunkCap = 8 << 20 // 12 MiB of encoded blocks per chunk at (2,3)
		segment  = 1 << 20 // 4 MiB blocks stream in 4 windowed segments
		// Two chunks in flight (≈ 40 MiB of chunk + encoded blocks)
		// plus windows, scratch, and GC lag (observed 57–68 MiB). A
		// regression to whole-file buffering adds the full 128 MiB on
		// top and trips this with room to spare.
		heapCap = 96 << 20
	)

	servers, seed := testRing(t, 3, 2*fileSize)
	for _, s := range servers {
		s.SetDiscard(true)
	}
	c := dialTest(t, seed,
		peerstripe.WithCode("xor"),
		peerstripe.WithChunkCap(chunkCap),
		peerstripe.WithSegment(segment),
		peerstripe.WithStreamWindow(4),
		peerstripe.WithPipelineDepth(2))

	hs := startHeapSampler()
	src := io.LimitReader(rand.New(rand.NewSource(12)), fileSize)
	info, err := c.Store(context.Background(), "winstream.dat", src, fileSize)
	growth := hs.growth()
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != fileSize {
		t.Fatalf("stored %d of %d bytes", info.Size, fileSize)
	}

	if ops := totalWindowOps(servers); ops < 100 {
		t.Fatalf("only %d windowed segment ops served — the store did not use the windowed exchange", ops)
	}
	if growth > heapCap {
		t.Fatalf("peak heap grew %d MiB during a %d MiB windowed store (cap %d MiB) — memory is not window-bounded",
			growth>>20, fileSize>>20, int64(heapCap)>>20)
	}
	t.Logf("peak heap growth %d MiB for a %d MiB windowed store (%d windowed ops)",
		growth>>20, fileSize>>20, totalWindowOps(servers))
}

// TestStoreBytesAllocBudget pins the copies the store path no longer
// makes. Storing a 1 MiB object under the (2,3) xor code has to
// allocate the parity block on the client (0.5 B per user byte; a
// store recycles its backings only from one chunk to the next, and this
// object is one chunk) and the stored blocks on the nodes (1.5, in this
// process too); frame buffers are pooled and payloads leave without
// being copied into a frame (measured 2.008). A chunk buffer the
// caller's bytes are first copied into, or data blocks that are copies
// of the chunk, each add a whole byte per byte (the total was 4.0 with
// both).
func TestStoreBytesAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting distorted under the race detector")
	}
	const (
		size   = 1 << 20
		budget = 2.2 // bytes allocated, process-wide, per user byte
	)
	_, seed := testRing(t, 3, 1<<30)
	c := dialTest(t, seed, peerstripe.WithCode("xor"))
	data := make([]byte, size)
	rand.New(rand.NewSource(13)).Read(data)
	ctx := context.Background()

	// A collection empties the frame pools, and each refill is half a
	// byte per byte of noise; the few MiB this test allocates can wait.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var perByte []float64
	for i := 0; i < 7; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := c.StoreBytes(ctx, "budget.dat", data); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i >= 2 { // the first two fill the frame pools and open connections
			perByte = append(perByte, float64(after.TotalAlloc-before.TotalAlloc)/size)
		}
	}
	sort.Float64s(perByte)
	median := perByte[len(perByte)/2]
	t.Logf("StoreBytes allocates %.3f B per user byte (median of %v)", median, perByte)
	if median > budget {
		t.Fatalf("StoreBytes allocates %.2f B per user byte (median of %v), budget %.2f", median, perByte, budget)
	}
}

// TestFetchAllocBudget is the read twin of TestStoreBytesAllocBudget:
// reading a 4-chunk online object through File.Read over a live ring,
// the client decodes each chunk from views into its receive frames and
// gives the frames back, and the nodes send stored blocks without
// copying them into a frame, so what is left per user byte is the
// decoded chunk the cache keeps (1.0) and small change (measured
// 1.058). A client that copies every fetched block out of its frame
// adds the 1.6 coded bytes per user byte a decode reads (2.68 in all).
func TestFetchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting distorted under the race detector")
	}
	const (
		size   = 4 << 20
		budget = 1.16 // bytes allocated, process-wide, per user byte
	)
	const reads = 7
	_, seed := testRing(t, 4, 1<<30)
	c := dialTest(t, seed, peerstripe.WithCode("online"), peerstripe.WithChunkCap(1<<20))
	data := make([]byte, size)
	rand.New(rand.NewSource(14)).Read(data)
	ctx := context.Background()
	// One name per read, so every read is cold in the client's cache.
	names := make([]string, reads)
	for i := range names {
		names[i] = fmt.Sprintf("fetch-budget-%d.dat", i)
		if _, err := c.StoreBytes(ctx, names[i], data); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 64<<10)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var perByte []float64
	for i := 0; i < reads; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f, err := c.Open(ctx, names[i])
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.CopyBuffer(io.Discard, struct{ io.Reader }{f}, buf)
		f.Close()
		if err != nil || n != size {
			t.Fatalf("read %d of %d bytes: %v", n, size, err)
		}
		runtime.ReadMemStats(&after)
		if i >= 2 { // the first two fill the frame pools and open connections
			perByte = append(perByte, float64(after.TotalAlloc-before.TotalAlloc)/size)
		}
	}
	sort.Float64s(perByte)
	median := perByte[len(perByte)/2]
	t.Logf("File.Read allocates %.3f B per user byte (median of %v)", median, perByte)
	if median > budget {
		t.Fatalf("File.Read allocates %.2f B per user byte (median of %v), budget %.2f", median, perByte, budget)
	}
}
