package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"peerstripe/internal/erasure"
)

func randData(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// blockMap builds a fetch function over encoded blocks, with optional
// dropped names.
func blockMap(blocks []NamedBlock, drop ...string) FetchFunc {
	m := make(map[string][]byte, len(blocks))
	for _, b := range blocks {
		m[b.Name] = b.Data
	}
	for _, d := range drop {
		delete(m, d)
	}
	return func(name string) ([]byte, bool) {
		d, ok := m[name]
		return d, ok
	}
}

// readRange reads [off, off+n) of the file cat describes chunk by
// chunk, each piece through ReadChunk.
func readRange(ctx context.Context, cd *Codec, cat *CAT, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > cat.FileSize() {
		return nil, fmt.Errorf("range [%d,%d) outside file of %d bytes", off, off+n, cat.FileSize())
	}
	out := make([]byte, n)
	for _, ci := range cat.ChunksFor(off, n) {
		row := cat.Rows[ci]
		from, to := max(off, row.Start), min(off+n, row.End)
		if err := cd.ReadChunk(ctx, cat, ci, from-row.Start, out[from-off:to-off]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func TestCodecRoundTripNull(t *testing.T) {
	cd := &Codec{Code: erasure.NewNull()}
	data := randData(1, 1<<16)
	sizes := PlanChunkSizes(int64(len(data)), 10000)
	blocks, cat, err := cd.EncodeFile(context.Background(), "f", data, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	got, err := cd.DecodeFile(context.Background(), cat, blockMap(blocks))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("null codec round trip mismatch")
	}
}

func TestCodecRoundTripXOR(t *testing.T) {
	cd := &Codec{Code: erasure.MustXOR(2)}
	data := randData(2, 123457)
	sizes := PlanChunkSizes(int64(len(data)), 30000)
	blocks, cat, err := cd.EncodeFile(context.Background(), "x", data, sizes)
	if err != nil {
		t.Fatal(err)
	}
	// Drop one block of chunk 0 — XOR tolerates it.
	got, err := cd.DecodeFile(context.Background(), cat, blockMap(blocks, BlockName("x", 0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("xor codec lossy round trip mismatch")
	}
}

func TestCodecRoundTripOnline(t *testing.T) {
	cd := &Codec{Code: erasure.MustOnline(64, erasure.OnlineOpts{Eps: 0.2, Surplus: 0.25})}
	data := randData(3, 200000)
	sizes := PlanChunkSizes(int64(len(data)), 70000)
	blocks, cat, err := cd.EncodeFile(context.Background(), "o", data, sizes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cd.DecodeFile(context.Background(), cat, blockMap(blocks))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("online codec round trip mismatch")
	}
}

func TestCodecRange(t *testing.T) {
	cd := &Codec{Code: erasure.MustXOR(2)}
	data := randData(4, 100000)
	sizes := PlanChunkSizes(int64(len(data)), 9999)
	blocks, cat, err := cd.EncodeFile(context.Background(), "r", data, sizes)
	if err != nil {
		t.Fatal(err)
	}
	cd.Fetch = FetchBlocks(blockMap(blocks))
	for _, rg := range []struct{ off, n int64 }{
		{0, 1}, {0, 9999}, {9998, 2}, {50000, 25000}, {99999, 1}, {0, 100000},
	} {
		got, err := readRange(context.Background(), cd, cat, rg.off, rg.n)
		if err != nil {
			t.Fatalf("range (%d,%d): %v", rg.off, rg.n, err)
		}
		if !bytes.Equal(got, data[rg.off:rg.off+rg.n]) {
			t.Fatalf("range (%d,%d) mismatch", rg.off, rg.n)
		}
	}
}

// TestCodecParallelDeterministic checks that the worker-pool fan-out
// yields byte-identical block lists and decodes regardless of the
// worker count.
func TestCodecParallelDeterministic(t *testing.T) {
	data := randData(11, 300000)
	sizes := PlanChunkSizes(int64(len(data)), 20000) // 15 chunks
	var refBlocks []NamedBlock
	for _, workers := range []int{1, 2, 4, 0} {
		cd := &Codec{Code: erasure.MustXOR(2), Workers: workers}
		blocks, cat, err := cd.EncodeFile(context.Background(), "p", data, sizes)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if refBlocks == nil {
			refBlocks = blocks
		} else {
			if len(blocks) != len(refBlocks) {
				t.Fatalf("workers=%d: %d blocks, want %d", workers, len(blocks), len(refBlocks))
			}
			for i := range blocks {
				if blocks[i].Name != refBlocks[i].Name || !bytes.Equal(blocks[i].Data, refBlocks[i].Data) {
					t.Fatalf("workers=%d: block %d differs from serial encode", workers, i)
				}
			}
		}
		got, err := cd.DecodeFile(context.Background(), cat, blockMap(blocks))
		if err != nil {
			t.Fatalf("workers=%d decode: %v", workers, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("workers=%d: parallel round trip mismatch", workers)
		}
	}
}

// TestCodecParallelPropagatesErrors checks a failed chunk surfaces from
// the concurrent decode path.
func TestCodecParallelPropagatesErrors(t *testing.T) {
	cd := &Codec{Code: erasure.NewNull(), Workers: 4}
	data := randData(12, 50000)
	blocks, cat, err := cd.EncodeFile(context.Background(), "pe", data, PlanChunkSizes(50000, 5000))
	if err != nil {
		t.Fatal(err)
	}
	fetch := blockMap(blocks, BlockName("pe", 7, 0))
	if _, err := cd.DecodeFile(context.Background(), cat, fetch); err == nil {
		t.Fatal("parallel decode succeeded with a chunk missing")
	}
}

func TestCodecDecodeChunk(t *testing.T) {
	cd := &Codec{Code: erasure.MustXOR(2)}
	data := randData(13, 40000)
	blocks, cat, err := cd.EncodeFile(context.Background(), "dc", data, PlanChunkSizes(40000, 9000))
	if err != nil {
		t.Fatal(err)
	}
	cd.Fetch = FetchBlocks(blockMap(blocks))
	chunk := make([]byte, 9000)
	if err := cd.ReadChunk(context.Background(), cat, 1, 0, chunk); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chunk, data[9000:18000]) {
		t.Fatal("ReadChunk mismatch")
	}
	if err := cd.ReadChunk(context.Background(), cat, -1, 0, chunk); err == nil {
		t.Error("negative chunk index accepted")
	}
	if err := cd.ReadChunk(context.Background(), cat, cat.NumChunks(), 0, chunk); err == nil {
		t.Error("out-of-range chunk index accepted")
	}
}

// TestCodecDecodeChunkInto decodes every chunk of an online-coded file
// into one reused, dirty buffer: each lands byte-exact, and a buffer
// longer than the chunk or an index outside the table is refused.
func TestCodecDecodeChunkInto(t *testing.T) {
	ctx := context.Background()
	code := erasure.MustOnline(64, erasure.OnlineOpts{Eps: 0.2, Surplus: 0.25})
	data := randData(14, 50000)
	blocks, cat, err := (&Codec{Code: code}).EncodeFile(ctx, "di", data, PlanChunkSizes(50000, 20000))
	if err != nil {
		t.Fatal(err)
	}
	cd := &Codec{Code: code, Fetch: FetchBlocks(blockMap(blocks))}
	buf := bytes.Repeat([]byte{0xa5}, 20001)
	for ci, row := range cat.Rows {
		dst := buf[:row.Len()]
		if err := cd.ReadChunk(ctx, cat, ci, 0, dst); err != nil {
			t.Fatalf("chunk %d: %v", ci, err)
		}
		if !bytes.Equal(dst, data[row.Start:row.End]) {
			t.Fatalf("chunk %d decoded into the reused buffer differs", ci)
		}
	}
	if err := cd.ReadChunk(ctx, cat, 0, 0, buf); err == nil {
		t.Error("a buffer longer than the chunk accepted")
	}
	if err := cd.ReadChunk(ctx, cat, cat.NumChunks(), 0, buf[:100]); err == nil {
		t.Error("out-of-range chunk index accepted")
	}
}

func TestCodecRangeOutOfBounds(t *testing.T) {
	cd := &Codec{Code: erasure.NewNull()}
	data := randData(5, 100)
	blocks, cat, _ := cd.EncodeFile(context.Background(), "b", data, PlanChunkSizes(100, 50))
	cd.Fetch = FetchBlocks(blockMap(blocks))
	if err := cd.ReadChunk(context.Background(), cat, 1, 40, make([]byte, 20)); err == nil {
		t.Error("range past the chunk's end accepted")
	}
	if err := cd.ReadChunk(context.Background(), cat, 0, -1, make([]byte, 5)); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestCodecMissingBlocksFail(t *testing.T) {
	cd := &Codec{Code: erasure.NewNull()}
	data := randData(6, 5000)
	blocks, cat, _ := cd.EncodeFile(context.Background(), "m", data, PlanChunkSizes(5000, 1000))
	// Drop chunk 2 entirely.
	fetch := blockMap(blocks, BlockName("m", 2, 0))
	if _, err := cd.DecodeFile(context.Background(), cat, fetch); err == nil {
		t.Fatal("decode succeeded with a chunk missing")
	}
	// But a range not touching chunk 2 still works.
	cd.Fetch = FetchBlocks(fetch)
	got, err := readRange(context.Background(), cd, cat, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:1000]) {
		t.Fatal("range decode mismatch")
	}
}

func TestCodecZeroChunkRows(t *testing.T) {
	cd := &Codec{Code: erasure.NewNull()}
	data := randData(7, 300)
	// Simulate a zero-sized chunk between two real ones (§4.3 retries).
	blocks, cat, err := cd.EncodeFile(context.Background(), "z", data, []int64{200, 0, 100})
	if err != nil {
		t.Fatal(err)
	}
	if cat.NumChunks() != 3 || !cat.Rows[1].Empty() {
		t.Fatalf("CAT rows wrong: %+v", cat.Rows)
	}
	got, err := cd.DecodeFile(context.Background(), cat, blockMap(blocks))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("zero-chunk round trip mismatch")
	}
}

func TestCodecEncodeErrors(t *testing.T) {
	cd := &Codec{Code: erasure.NewNull()}
	if _, _, err := cd.EncodeFile(context.Background(), "e", []byte("abc"), []int64{2}); err == nil {
		t.Error("under-covering chunk sizes accepted")
	}
	if _, _, err := cd.EncodeFile(context.Background(), "e", []byte("abc"), []int64{5}); err == nil {
		t.Error("over-covering chunk sizes accepted")
	}
	if _, _, err := cd.EncodeFile(context.Background(), "e", []byte("abc"), []int64{-1, 4}); err == nil {
		t.Error("negative chunk size accepted")
	}
}

// TestCodeFor checks the name-based code factory the CLIs use: each
// name builds its code at the shape the live clients run, and an
// unknown name is rejected.
func TestCodeFor(t *testing.T) {
	for name, wantN := range map[string]int{"null": 1, "xor": 2, "online": 64, "rs": 8} {
		c, err := CodeFor(name, "")
		if err != nil {
			t.Fatalf("CodeFor(%q): %v", name, err)
		}
		if c.DataBlocks() != wantN {
			t.Errorf("CodeFor(%q): n = %d, want %d", name, c.DataBlocks(), wantN)
		}
	}
	if _, err := CodeFor("lrc", ""); err == nil {
		t.Error("unknown code accepted")
	}
	// An unknown code reports "unknown code" even when a schedule is
	// also set — the code-name diagnostic must win.
	if _, err := CodeFor("lrc", "windowed"); err == nil || !strings.Contains(err.Error(), "unknown erasure code") {
		t.Errorf("unknown code with schedule: %v", err)
	}
}

// TestCodeForGolden pins the stored format: the blocks each code that
// CodeFor builds makes of one fixed chunk, hashed (index, then bytes)
// over the whole block set. The hashes were computed before the
// schedule knob and the unused gather paths were deleted; a change here
// means blocks already stored no longer decode to their bytes. Every
// code also round-trips the chunk, and no code takes a schedule name:
// a CAT records none, so an object encoded under one schedule and read
// under another would decode to wrong bytes. A store encodes into a
// recycled backing that holds whatever its last user left, so each
// code encodes the chunk again into a larger, poisoned one and must
// store the same bytes.
func TestCodeForGolden(t *testing.T) {
	chunk := randData(2028, 1<<20+123) // a padded tail for every n
	cases := []struct {
		code, golden string
		blocks       int
	}{
		{"null", "294a6c39601fc2ca88fe257355dcbe65b106107fd91aad49a4a6d841742053f6", 1},
		{"xor", "28bf13128e3c15852fa1fb6a9cdb1f9a2aad49c48493a782c85b45365163452d", 3},
		{"rs", "b7bf6bbda07db6430efe9a921414626f01a1a6252fce480fa83cab9e7c141c2a", 10},
		{"online", "5a2f9e57a1ea941cdcd22db23ea483f12038e640a1c4b27ac78dac2b43a4033b", 121},
	}
	for _, tc := range cases {
		c, err := CodeFor(tc.code, "")
		if err != nil {
			t.Fatalf("CodeFor(%q): %v", tc.code, err)
		}
		blocks, err := c.Encode(chunk)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashBlocks(blocks); got != tc.golden || len(blocks) != tc.blocks {
			t.Errorf("%s: %d blocks hashing %s, golden %d blocks %s", tc.code, len(blocks), got, tc.blocks, tc.golden)
		}
		dirty := bytes.Repeat([]byte{0xdb}, c.BackingLen(len(chunk))+4096)
		reused, backing, err := c.EncodeInto(dirty, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if &backing[0] != &dirty[0] {
			t.Errorf("%s: EncodeInto replaced a backing with room", tc.code)
		}
		if got := hashBlocks(reused); got != tc.golden || len(reused) != tc.blocks {
			t.Errorf("%s: into a dirty backing, %d blocks hashing %s, golden %d blocks %s", tc.code, len(reused), got, tc.blocks, tc.golden)
		}
		got, err := c.Decode(blocks, len(chunk))
		if err != nil || !bytes.Equal(got, chunk) {
			t.Errorf("%s: round trip failed: %v", tc.code, err)
		}
		for _, s := range []string{"uniform", "windowed", "windowed12", "banded", "banded25x4", "bogus"} {
			if _, err := CodeFor(tc.code, s); err == nil {
				t.Errorf("CodeFor(%q, %q) accepted a schedule", tc.code, s)
			}
		}
	}
}

// hashBlocks hashes each block's index and bytes, in order.
func hashBlocks(blocks []erasure.Block) string {
	h := sha256.New()
	for _, b := range blocks {
		binary.Write(h, binary.LittleEndian, int32(b.Index))
		h.Write(b.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
