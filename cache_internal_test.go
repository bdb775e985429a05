package peerstripe

import (
	"bytes"
	"context"
	"testing"

	"peerstripe/internal/core"
)

// TestCacheVersionedKeysIsolateLayouts pins that the cache key carries
// the CAT version: the same (name, chunk) under a different version is
// a miss, never a hit on the other layout's bytes — including when the
// stale entry's length differs from the new layout's chunk (the shape
// that used to panic ReadAt's chunk[lo:hi]).
func TestCacheVersionedKeysIsolateLayouts(t *testing.T) {
	c := newChunkCache(1 << 20)
	ctx := context.Background()

	old := []byte("old") // note: shorter than the new layout's chunk
	got, err := c.chunk(ctx, "f", 1, 0, int64(len(old)), func() ([]byte, error) { return old, nil })
	if err != nil || !bytes.Equal(got, old) {
		t.Fatalf("seed read: %q, %v", got, err)
	}

	fresh := []byte("fresh") // same name+chunk, new version, new length
	fetched := false
	got, err = c.chunk(ctx, "f", 2, 0, int64(len(fresh)), func() ([]byte, error) {
		fetched = true
		return fresh, nil
	})
	if err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("versioned read: %q, %v", got, err)
	}
	if !fetched {
		t.Fatal("new version served from the old version's cache entry")
	}
}

// TestCacheHitLengthMismatchRefetches pins the defensive length guard
// on the hit path: an entry whose bytes do not match the caller's CAT
// row length (unreachable under versioned keys, but it must never
// panic a read) is dropped and refetched instead of served.
func TestCacheHitLengthMismatchRefetches(t *testing.T) {
	c := newChunkCache(1 << 20)
	key := chunkKey{name: "f", ver: 7, ci: 0}
	c.mu.Lock()
	c.storeLocked(key, []byte("abc"))
	c.mu.Unlock()

	want := []byte("hello")
	got, err := c.chunk(context.Background(), "f", 7, 0, int64(len(want)), func() ([]byte, error) { return want, nil })
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read: %q, %v", got, err)
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	c.mu.Unlock()
	if !ok || !bytes.Equal(el.Value.(*cacheEntry).data, want) {
		t.Fatal("mismatched entry not replaced by the refetched bytes")
	}
}

// TestCacheInvalidateDoomsInflightFetch pins the invalidate/flight
// race: a fetch that started before invalidate and completes after it
// must not repopulate the cache — its bytes belong to the layout the
// invalidate just retired. The leader (and any follower already
// waiting) still gets the bytes; they hold the old CAT, for which the
// result is consistent.
func TestCacheInvalidateDoomsInflightFetch(t *testing.T) {
	c := newChunkCache(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)

	go func() {
		got, err := c.chunk(context.Background(), "f", 1, 0, 4, func() ([]byte, error) {
			close(started)
			<-release
			return []byte("old!"), nil
		})
		if err == nil && !bytes.Equal(got, []byte("old!")) {
			err = context.Canceled // any sentinel: wrong bytes
		}
		done <- err
	}()

	<-started
	c.invalidate("f")
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("leader read across invalidate: %v", err)
	}

	c.mu.Lock()
	entries, size := len(c.entries), c.size
	c.mu.Unlock()
	if entries != 0 || size != 0 {
		t.Fatalf("doomed flight repopulated the cache: %d entries, %d bytes", entries, size)
	}
}

// TestCacheLookupAllocFree pins the lookups a ReadAt makes per chunk:
// known, hit or miss, and a cache hit through chunk allocate nothing.
func TestCacheLookupAllocFree(t *testing.T) {
	c := newChunkCache(1 << 20)
	ctx := context.Background()
	fetch := func() ([]byte, error) { return []byte("abc"), nil }
	if data, err := c.chunk(ctx, "f", 9, 0, 3, fetch); err != nil || string(data) != "abc" {
		t.Fatalf("first read: %q, %v", data, err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		c.known("f", 9, 0)
		c.known("f", 9, 1)
		c.chunk(ctx, "f", 9, 0, 3, fetch) //nolint:errcheck
	}); allocs != 0 {
		t.Fatalf("a hit and two lookups allocate %.1f times, want 0", allocs)
	}
}

// TestCacheFlightLeaderAdmitsOnce pins the single insert of a File
// miss: the flight's leader admits its result once, and not at all
// when an invalidate overtook the flight.
func TestCacheFlightLeaderAdmitsOnce(t *testing.T) {
	c := newChunkCache(1 << 20)
	cat := &core.CAT{File: "f", Rows: []core.CATRow{{Start: 0, End: 4, Sum: 9}}}
	held := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.entries)
	}
	fetch := func(overtaken bool) {
		t.Helper()
		_, err := c.chunk(context.Background(), "f", cat.Hash(), 0, 4, func() ([]byte, error) {
			if overtaken {
				c.invalidate("f")
			}
			if n := held(); n != 0 {
				t.Errorf("a flight's entry was admitted before its leader returned: %d entries", n)
			}
			return []byte("data"), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	fetch(true)
	if n := held(); n != 0 {
		t.Fatalf("an overtaken flight left %d entries", n)
	}
	fetch(false)
	if n := held(); n != 1 {
		t.Fatalf("a flight left %d entries, want 1", n)
	}
}
