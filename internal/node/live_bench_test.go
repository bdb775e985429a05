package node

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
)

// The Live benchmarks measure the §5 data path end to end over a
// 3-node loopback ring: BenchmarkLiveStoreFile/BenchmarkLiveFetchFile
// run the concurrent pipeline (multiplexed pooled transport, batched
// probes, parallel block fan-out) over many small blocks.

const (
	benchFileSize = 4 << 20
	benchChunkCap = 32 << 10
)

func benchData() []byte {
	data := make([]byte, benchFileSize)
	rand.New(rand.NewSource(1)).Read(data)
	return data
}

func benchClient(b *testing.B, seed string) *Client {
	b.Helper()
	c, err := NewClientCfg(context.Background(), seed, erasure.MustXOR(2), Config{ChunkCap: benchChunkCap})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

func BenchmarkLiveStoreFile(b *testing.B) {
	_, seed := startRing(b, 3, 8<<30)
	c := benchClient(b, seed)
	data := benchData()
	b.SetBytes(benchFileSize)
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("bench-store-%d.dat", i)
		if _, err := c.StoreFileCtx(context.Background(), name, data); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := c.DeleteFileCtx(context.Background(), name); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkLiveFetchFile(b *testing.B) {
	_, seed := startRing(b, 3, 8<<30)
	c := benchClient(b, seed)
	data := benchData()
	if _, err := c.StoreFileCtx(context.Background(), "bench-fetch.dat", data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchFileSize)
	for b.Loop() {
		got, err := c.FetchFileCtx(context.Background(), "bench-fetch.dat")
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			b.Fatal("fetch mismatch")
		}
	}
}

// The *Stream benchmarks measure the windowed pipeline itself: blocks
// many segments large, stored through the pipelined StoreReader
// (encode of chunk N overlapping upload of chunk N−1, windowed
// segment exchange per block) and fetched back through the ranged
// segment stream with per-source progress hedging armed.

const (
	benchStreamChunk   = 1 << 20 // 512 KiB blocks at xor(2,3)
	benchStreamSegment = 64 << 10
)

func benchStreamClient(b *testing.B, seed string) *Client {
	b.Helper()
	c, err := NewClientCfg(context.Background(), seed, erasure.MustXOR(2), Config{
		ChunkCap: benchStreamChunk,
		Segment:  benchStreamSegment,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

func BenchmarkLiveStoreStream(b *testing.B) {
	_, seed := startRing(b, 3, 8<<30)
	c := benchStreamClient(b, seed)
	data := benchData()
	plan := core.PlanChunkSizes(benchFileSize, benchStreamChunk)
	b.SetBytes(benchFileSize)
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("bench-winstore-%d.dat", i)
		if _, err := c.StoreReader(context.Background(), name, bytes.NewReader(data), plan); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := c.DeleteFileCtx(context.Background(), name); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkLiveFetchStream(b *testing.B) {
	_, seed := startRing(b, 3, 8<<30)
	c := benchStreamClient(b, seed)
	data := benchData()
	if _, err := c.StoreFileCtx(context.Background(), "bench-winfetch.dat", data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchFileSize)
	for b.Loop() {
		got, err := c.FetchFileCtx(context.Background(), "bench-winfetch.dat")
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			b.Fatal("fetch mismatch")
		}
	}
}
