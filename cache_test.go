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
// bound: one fetch per chunk (the hot marker came with the CAT, in
// Open).
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

	// chunks block fetches, and no probe of the absent promotion marker.
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

// TestPromoteReplicaReads pins the hot-read path end to end: Promote
// places full-copy chunk replicas, a fresh client then reads one block
// per chunk (no erasure decode wave), and Demote restores the coded
// path. Byte equality is checked on every path.
func TestPromoteReplicaReads(t *testing.T) {
	servers, seed := testRing(t, 4, 1<<30)
	const chunk = 64 << 10
	c := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(chunk))

	const chunks = 4
	data := make([]byte, chunks*chunk)
	rand.New(rand.NewSource(14)).Read(data)
	ctx := context.Background()
	if _, err := c.StoreBytes(ctx, "hot.dat", data); err != nil {
		t.Fatal(err)
	}

	info, err := c.Promote(ctx, "hot.dat", 2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Chunks != chunks || info.Copies != 2 || info.Bytes != int64(2*len(data)) {
		t.Fatalf("PromoteInfo %+v", info)
	}

	// A fresh client (empty cache) reading the promoted file costs one
	// replica block per chunk — not the xor decode wave of two blocks
	// per chunk. The marker came with the CAT, in Open.
	hot := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(chunk))
	fh, err := hot.Open(ctx, "hot.dat")
	if err != nil {
		t.Fatal(err)
	}
	base := totalFetchOps(servers)
	got, err := io.ReadAll(fh)
	fh.Close()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("promoted read: %v", err)
	}
	if delta := totalFetchOps(servers) - base; delta != chunks {
		t.Errorf("promoted read cost %d fetches, want %d (one replica per chunk)", delta, chunks)
	}

	if err := c.Demote(ctx, "hot.dat"); err != nil {
		t.Fatal(err)
	}
	cold := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(chunk))
	fc, err := cold.Open(ctx, "hot.dat")
	if err != nil {
		t.Fatal(err)
	}
	base = totalFetchOps(servers)
	got, err = io.ReadAll(fc)
	fc.Close()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("demoted read: %v", err)
	}
	// Back on the decode path: two xor blocks per chunk, and no
	// marker probe.
	if delta := totalFetchOps(servers) - base; delta != 2*chunks {
		t.Errorf("demoted read cost %d fetches, want %d (xor decode wave)", delta, 2*chunks)
	}
}

// TestStoreDemotesStaleReplicas pins that re-storing a promoted name
// demotes it for readers: a later read must see the new bytes, never a
// stale hot copy, although the store itself left the old marker and
// replicas for the first Open to reclaim.
func TestStoreDemotesStaleReplicas(t *testing.T) {
	_, seed := testRing(t, 4, 1<<30)
	const chunk = 64 << 10
	c := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(chunk))
	ctx := context.Background()

	v1 := make([]byte, 3*chunk)
	rand.New(rand.NewSource(15)).Read(v1)
	if _, err := c.StoreBytes(ctx, "restore.dat", v1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Promote(ctx, "restore.dat", 2); err != nil {
		t.Fatal(err)
	}

	v2 := make([]byte, 3*chunk)
	rand.New(rand.NewSource(16)).Read(v2)
	if _, err := c.StoreBytes(ctx, "restore.dat", v2); err != nil {
		t.Fatal(err)
	}

	// A fresh client must get v2 — the marker names v1's CAT, so
	// nothing routes reads at leftover v1 replicas.
	c2 := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(chunk))
	f, err := c2.Open(ctx, "restore.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := io.ReadAll(f)
	if err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("read after re-store: equal-to-v2=%v err=%v", bytes.Equal(got, v2), err)
	}
}

// TestStoreMakesNoMarkerTraffic pins that a store of a name that was
// never promoted reads nothing and fails no call: no probe for a hot
// marker that was never written, which used to end every store with a
// failed fetch. A stale marker is reclaimed by the first Open instead.
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
