package peerstripe_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"peerstripe"
	"peerstripe/internal/node"
)

func totalFetchOps(servers []*node.Server) int64 {
	var n int64
	for _, s := range servers {
		n += s.FetchOps()
	}
	return n
}

// TestColdChunkSingleflight pins the thundering-herd fix: 64 readers
// racing over one cold multi-chunk file through a single handle must
// fetch and decode each chunk exactly once. With the null code every
// chunk is one block, so the server-side fetch counters give an exact
// bound: one fetch per chunk (the CAT came before, in Open).
func TestColdChunkSingleflight(t *testing.T) {
	servers, seed := testRing(t, 3, 1<<30)
	c := dialTest(t, seed,
		peerstripe.WithCode("null"),
		peerstripe.WithChunkCap(64<<10))

	const chunks = 8
	data := make([]byte, chunks*64<<10)
	rand.New(rand.NewSource(11)).Read(data)
	ctx := context.Background()
	info, err := c.Store(ctx, "herd.dat", bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Chunks != chunks {
		t.Fatalf("planned %d chunks, want %d", info.Chunks, chunks)
	}

	f, err := c.Open(ctx, "herd.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	base := totalFetchOps(servers)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, len(data))
			if _, err := f.ReadAt(buf, 0); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(buf, data) {
				errs <- io.ErrUnexpectedEOF
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// chunks block fetches, and nothing else.
	if delta := totalFetchOps(servers) - base; delta != chunks {
		t.Errorf("herd of 64 cost %d fetches, want %d (one per chunk)", delta, chunks)
	}
	st := c.CacheStats()
	if st.Decodes != chunks {
		t.Errorf("Decodes = %d, want %d (each chunk decoded exactly once)", st.Decodes, chunks)
	}
	if st.Hits == 0 {
		t.Error("herd recorded no cache hits")
	}
}

// TestCacheSharedAcrossHandles pins that the decoded-chunk cache
// belongs to the Client, not the File: a second handle (and a reopened
// one) reads entirely from cache, costing zero block fetches.
func TestCacheSharedAcrossHandles(t *testing.T) {
	servers, seed := testRing(t, 3, 1<<30)
	c := dialTest(t, seed,
		peerstripe.WithCode("null"),
		peerstripe.WithChunkCap(64<<10))

	data := make([]byte, 4*64<<10)
	rand.New(rand.NewSource(12)).Read(data)
	ctx := context.Background()
	if _, err := c.Store(ctx, "shared.dat", bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatal(err)
	}

	f1, err := c.Open(ctx, "shared.dat")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(f1); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("first read: %v", err)
	}
	f1.Close()

	decodes := c.CacheStats().Decodes
	f2, err := c.Open(ctx, "shared.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	base := totalFetchOps(servers) // past the CAT fetch Open just did
	if got, err := io.ReadAll(f2); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("second read: %v", err)
	}
	if d := c.CacheStats().Decodes; d != decodes {
		t.Errorf("second handle re-decoded: Decodes %d -> %d", decodes, d)
	}
	// The data must come from cache without a single block fetch.
	if delta := totalFetchOps(servers) - base; delta != 0 {
		t.Errorf("cached read cost %d block fetches, want 0", delta)
	}
}

// TestCacheEviction pins the byte bound: a file larger than the cache
// still reads correctly, the bound holds, and the LRU records
// evictions instead of growing.
func TestCacheEviction(t *testing.T) {
	_, seed := testRing(t, 3, 1<<30)
	const chunk = 64 << 10
	c := dialTest(t, seed,
		peerstripe.WithCode("null"),
		peerstripe.WithChunkCap(chunk),
		peerstripe.WithChunkCache(2*chunk)) // room for 2 of 8 chunks

	data := make([]byte, 8*chunk)
	rand.New(rand.NewSource(13)).Read(data)
	ctx := context.Background()
	if _, err := c.StoreBytes(ctx, "evict.dat", data); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open(ctx, "evict.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for pass := 0; pass < 2; pass++ {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(f)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("pass %d: %v", pass, err)
		}
	}
	st := c.CacheStats()
	if st.Evictions == 0 {
		t.Error("no evictions although the file is 4x the cache bound")
	}
	if st.Bytes > st.MaxBytes {
		t.Errorf("cache holds %d bytes over the %d bound", st.Bytes, st.MaxBytes)
	}
}

// TestColdReadAfterRestore pins what a fresh client's read of a
// re-stored name costs and returns: the new bytes, through the coded
// path only — two xor blocks per chunk and no other fetch (Open's CAT
// load is one fetch, made before the count starts).
func TestColdReadAfterRestore(t *testing.T) {
	servers, seed := testRing(t, 4, 1<<30)
	const chunk = 64 << 10
	c := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(chunk))
	ctx := context.Background()

	const chunks = 3
	v1 := make([]byte, chunks*chunk)
	rand.New(rand.NewSource(15)).Read(v1)
	v2 := make([]byte, chunks*chunk)
	rand.New(rand.NewSource(16)).Read(v2)
	for _, v := range [][]byte{v1, v2} {
		if _, err := c.StoreBytes(ctx, "restore.dat", v); err != nil {
			t.Fatal(err)
		}
		cold := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(chunk))
		f, err := cold.Open(ctx, "restore.dat")
		if err != nil {
			t.Fatal(err)
		}
		base := totalFetchOps(servers)
		got, err := io.ReadAll(f)
		f.Close()
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("cold read: equal=%v err=%v", bytes.Equal(got, v), err)
		}
		if delta := totalFetchOps(servers) - base; delta != 2*chunks {
			t.Errorf("cold read cost %d fetches, want %d (xor decode wave)", delta, 2*chunks)
		}
	}
}

// TestStoreMakesNoMarkerTraffic pins that a store, first or
// overwriting, reads nothing and fails no call. Stores once ended with
// a failed fetch: a probe for a hot-promotion marker that was never
// written.
func TestStoreMakesNoMarkerTraffic(t *testing.T) {
	servers, seed := testRing(t, 4, 1<<30)
	c := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(64<<10))
	data := make([]byte, 3*64<<10)
	rand.New(rand.NewSource(17)).Read(data)
	ctx := context.Background()
	callErrors := func() int64 {
		var n int64
		for name, v := range c.Metrics().Counters {
			if strings.HasPrefix(name, "ps_client_call_errors_total") {
				n += v
			}
		}
		return n
	}
	for i := 0; i < 2; i++ { // a first store, then an overwrite
		fetches, errs := totalFetchOps(servers), callErrors()
		if _, err := c.StoreBytes(ctx, "quiet.dat", data); err != nil {
			t.Fatal(err)
		}
		if n := totalFetchOps(servers) - fetches; n != 0 {
			t.Errorf("store %d read %d blocks, want 0", i, n)
		}
		if n := callErrors() - errs; n != 0 {
			t.Errorf("store %d failed %d calls, want 0", i, n)
		}
	}
}
