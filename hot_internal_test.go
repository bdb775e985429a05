package peerstripe

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"peerstripe/internal/core"
	"peerstripe/internal/node"
)

// TestStaleHotMarkerIgnoredAfterRestore pins the content binding of
// hot promotion: a re-store sends no marker traffic, so the .HOT marker
// and full-copy replicas survive it and still describe the OLD bytes
// (here the re-store goes through the internal client, which also
// skips the cache invalidation). The new layout has identical chunk
// extents — every stale replica matches the new chunk lengths — so
// before markers were bound to the CAT's content hash, readers served
// the old bytes. They must fall back to the coded path and return the
// new ones, and the first such Open must reclaim the stale replicas.
func TestStaleHotMarkerIgnoredAfterRestore(t *testing.T) {
	var servers []*node.Server
	seed := ""
	for i := 0; i < 4; i++ {
		s, err := node.NewServer("127.0.0.1:0", 1<<30, seed)
		if err != nil {
			t.Fatal(err)
		}
		if seed == "" {
			seed = s.Addr()
		}
		servers = append(servers, s)
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		converged := true
		for _, s := range servers {
			if s.RingSize() != len(servers) {
				converged = false
			}
		}
		if converged {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	const chunk = 64 << 10
	ctx := context.Background()
	c, err := Dial(ctx, seed, WithCode("xor"), WithChunkCap(chunk))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	v1 := make([]byte, 3*chunk)
	rand.New(rand.NewSource(21)).Read(v1)
	if _, err := c.StoreBytes(ctx, "stale.dat", v1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Promote(ctx, "stale.dat", 2); err != nil {
		t.Fatal(err)
	}

	// Re-store same-size different bytes through the internal client:
	// no demote, no cache invalidate — the marker and v1 replicas
	// survive, bound to v1's CAT hash.
	v2 := make([]byte, 3*chunk)
	rand.New(rand.NewSource(22)).Read(v2)
	plan := core.PlanChunkSizes(int64(len(v2)), c.opts.maxChunk())
	if _, err := c.c.StoreReader(ctx, "stale.dat", bytes.NewReader(v2), plan); err != nil {
		t.Fatal(err)
	}

	// The stale marker must still be there, read with the CAT it no
	// longer matches (the premise of the test)…
	cat, hot, err := c.c.LoadCATHotCtx(ctx, "stale.dat")
	if err != nil || hot.Copies != 2 || !hot.Stale(cat) || hot.For(cat) != 0 {
		t.Fatalf("stale marker gone or not stale (%+v, err=%v); test premise broken", hot, err)
	}

	// …and readers on a fresh client, opening at once, must read v2
	// regardless.
	c2, err := Dial(ctx, seed, WithCode("xor"), WithChunkCap(chunk))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := c2.Open(ctx, "stale.dat")
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			got, err := io.ReadAll(f)
			switch {
			case err != nil:
				t.Error(err)
			case bytes.Equal(got, v1):
				t.Error("read served stale hot replicas of the old bytes")
			case !bytes.Equal(got, v2):
				t.Error("read matches neither version")
			}
		}()
	}
	wg.Wait()

	// …and an Open that read the stale marker reclaims it and the
	// replicas it names in the background.
	deadline = time.Now().Add(10 * time.Second)
	for {
		_, hot, err := c.c.LoadCATHotCtx(ctx, "stale.dat")
		left := 0
		for ci := 0; ci < cat.NumChunks(); ci++ {
			for r := 1; r <= 2; r++ {
				if _, err := c.c.FetchChunkCopy(ctx, "stale.dat", ci, r); !errors.Is(err, node.ErrNotFound) {
					left++
				}
			}
		}
		if err == nil && hot == (node.HotMarker{}) && left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale promotion not reclaimed: marker %+v (err %v), %d replicas left", hot, err, left)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
