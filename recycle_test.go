package peerstripe_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"peerstripe"
)

// TestLiveRecycledConcurrentStores runs stores and streams of distinct
// objects through one client at once, so the buffers its recycler hands
// out move between them: one-chunk xor objects alternating between 256
// KiB and 4 MiB, of odd and even lengths (an odd chunk encodes its
// padded second block into the backing too), half stored from memory
// and half from a reader, each streamed back at once and all of them
// again at the end. Every read must be byte-exact. Under the race
// detector a buffer is poisoned when it is given back, so a block or
// chunk still in use after its store or stream let it go reads wrong
// here.
func TestLiveRecycledConcurrentStores(t *testing.T) {
	const (
		workers = 4
		objects = 4 // per worker
	)
	sizes := []int{256 << 10, 4<<20 + 1, 256<<10 + 1, 4 << 20}
	_, seed := testRing(t, 3, 1<<30)
	// A 4 MiB object is more than half this cache, so it streams back
	// through the client's recycled buffer rather than the cache.
	c := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCache(6<<20))
	ctx := context.Background()
	want := make(map[string][]byte)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < objects; i++ {
				name := fmt.Sprintf("recycled-%d-%d.dat", w, i)
				data := make([]byte, sizes[(w+i)%len(sizes)])
				rng.Read(data)
				var err error
				if i%2 == 0 {
					_, err = c.StoreBytes(ctx, name, data)
				} else {
					_, err = c.Store(ctx, name, bytes.NewReader(data), int64(len(data)))
				}
				if err != nil {
					t.Errorf("store %s: %v", name, err)
					return
				}
				if err := readBack(ctx, c, name, data); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				want[name] = data
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for name, data := range want {
		if err := readBack(ctx, c, name, data); err != nil {
			t.Error(err)
		}
	}
}

// readBack streams name from c and compares it with data.
func readBack(ctx context.Context, c *peerstripe.Client, name string, data []byte) error {
	f, err := c.Open(ctx, name)
	if err != nil {
		return fmt.Errorf("open %s: %w", name, err)
	}
	defer f.Close()
	var got bytes.Buffer
	if _, err := io.Copy(&got, f); err != nil {
		return fmt.Errorf("read %s: %w", name, err)
	}
	if !bytes.Equal(got.Bytes(), data) {
		return fmt.Errorf("%s: read back %d bytes that differ from the %d stored", name, got.Len(), len(data))
	}
	return nil
}
