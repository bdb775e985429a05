package erasure

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestTiledEncodeByteIdentical pins that the cache-blocked gather is a
// pure reassociation: the default plan's encoding matches a golden hash
// computed from the pre-blocking implementation, and plans of other
// tile widths — down to the single-tile, unblocked plan — produce
// byte-for-byte the same blocks. A drift here means stored blocks from
// older builds would no longer be reproducible.
func TestTiledEncodeByteIdentical(t *testing.T) {
	const golden = "ecff7c571c6aa0740ebe9fd8ff012db512b0af0c13f804057edea1326bbecd04"
	chunk := make([]byte, 1<<20)
	rand.New(rand.NewSource(1234)).Read(chunk)
	code := MustOnline(4096, OnlineOpts{})
	hash := func(blocks []Block, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, b := range blocks {
			h.Write(b.Data)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	if got := hash(code.Encode(chunk)); got != golden {
		t.Fatalf("default blocking drifted from pre-blocking encoding: %s, golden %s", got, golden)
	}
	for _, tc := range []struct {
		name string
		tile int
	}{
		{"unblocked", code.nPrime},
		{"split-everything", encTileBlocks},
		{"tile1024", 1024},
		{"tile2048", 2048},
	} {
		t.Run(tc.name, func(t *testing.T) {
			aux := newTilePlan(code.auxMembers, code.n, tc.tile)
			check := newTilePlan(code.checkComps, code.nPrime, tc.tile)
			blocks, _, err := code.encodeWith(nil, chunk, aux, check)
			if got := hash(blocks, err); got != golden {
				t.Errorf("%s: blocked encode not byte-identical: %s, golden %s", tc.name, got, golden)
			}
		})
	}
}

// TestConcurrentFirstEncode races the first Encode and FreshBlock calls
// of a fresh Online value, which build its gather plans once between
// them, and checks every result against a serial encode.
func TestConcurrentFirstEncode(t *testing.T) {
	chunk := make([]byte, 64<<10+5)
	rand.New(rand.NewSource(5)).Read(chunk)
	want, err := MustOnline(256, OnlineOpts{}).Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	code := MustOnline(256, OnlineOpts{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			blocks, err := code.Encode(chunk)
			if err != nil || len(blocks) != len(want) {
				t.Errorf("concurrent encode: %d blocks, %v", len(blocks), err)
				return
			}
			for i := range blocks {
				if !bytes.Equal(blocks[i].Data, want[i].Data) {
					t.Errorf("concurrent encode: block %d differs from serial", i)
					return
				}
			}
			if _, err := code.FreshBlock(chunk, code.EncodedBlocks()); err != nil {
				t.Errorf("concurrent fresh block: %v", err)
			}
		}()
	}
	wg.Wait()
}
