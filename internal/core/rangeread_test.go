package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"peerstripe/internal/erasure"
)

func TestPlanBlockRanges(t *testing.T) {
	for _, tc := range []struct {
		name     string
		chunkLen int64
		n        int
		lo, hi   int64
		want     []blockRange
	}{
		{"divides, inside one block", 12, 3, 5, 7, []blockRange{{1, 1, 2, 0}}},
		{"divides, one whole block", 12, 3, 4, 8, []blockRange{{1, 0, 4, 0}}},
		{"divides, span of two", 12, 3, 3, 5, []blockRange{{0, 3, 1, 0}, {1, 0, 1, 1}}},
		{"divides, span of three", 12, 3, 3, 9, []blockRange{{0, 3, 1, 0}, {1, 0, 4, 1}, {2, 0, 1, 5}}},
		{"divides, whole chunk", 12, 3, 0, 12, []blockRange{{0, 0, 4, 0}, {1, 0, 4, 4}, {2, 0, 4, 8}}},
		{"padded tail, last byte", 10, 3, 9, 10, []blockRange{{2, 1, 1, 0}}},
		{"padded tail, span into it", 10, 3, 7, 10, []blockRange{{1, 3, 1, 0}, {2, 0, 2, 1}}},
		{"first byte", 10, 3, 0, 1, []blockRange{{0, 0, 1, 0}}},
		{"len < n: padding blocks never planned", 2, 5, 0, 2, []blockRange{{0, 0, 1, 0}, {1, 0, 1, 1}}},
		{"len < n: last byte", 2, 5, 1, 2, []blockRange{{1, 0, 1, 0}}},
		{"one data block (null)", 10, 1, 3, 8, []blockRange{{0, 3, 5, 0}}},
		{"crossing the chunk's end is clipped", 10, 3, 8, 15, []blockRange{{2, 0, 2, 0}}},
		{"starting before the chunk is clipped", 10, 3, -4, 2, []blockRange{{0, 0, 2, 0}}},
		{"zero-length row", 0, 3, 0, 0, nil},
		{"zero-length row, range past it", 0, 3, 0, 5, nil},
		{"empty range", 10, 3, 4, 4, nil},
		{"range past the chunk", 10, 3, 10, 12, nil},
	} {
		got := planBlockRanges(tc.chunkLen, tc.n, tc.lo, tc.hi)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: planBlockRanges(%d, %d, %d, %d) = %v, want %v", tc.name, tc.chunkLen, tc.n, tc.lo, tc.hi, got, tc.want)
		}
	}
}

// checkRangeRead is the differential property behind the table test and
// the fuzz target: with the given blocks of every chunk lost,
// DecodeRange(off, n) equals the same slice of the whole-file decode —
// or both fail. It returns how many block ranges the read moved.
func checkRangeRead(t *testing.T, code erasure.Code, data []byte, chunkCap, off, n int64, lost []int) int {
	t.Helper()
	ctx := context.Background()
	sizes := PlanChunkSizes(int64(len(data)), chunkCap)
	// Zero-length rows (refused placements) must not disturb the plan.
	sizes = append([]int64{0}, append(sizes, 0)...)
	blocks, cat, err := (&Codec{Code: code}).EncodeFile(ctx, "f", data, sizes)
	if err != nil {
		t.Fatal(err)
	}
	var drop []string
	for ci := range cat.Rows {
		for _, e := range lost {
			drop = append(drop, BlockName("f", ci, e))
		}
	}
	fetch := blockMap(blocks, drop...)

	whole, wholeErr := (&Codec{Code: code}).DecodeFile(ctx, cat, fetch)
	var ranges atomic.Int64
	cd := &Codec{Code: code, FetchParallel: 4, OnRangeRead: func(int, bool) { ranges.Add(1) }}
	got, err := cd.DecodeRange(ctx, cat, off, n, fetch)
	if wholeErr != nil {
		if err == nil && n > 0 {
			t.Fatalf("%s lost %v: ranged read of [%d,%d) succeeded where the whole decode failed: %v", code.Name(), lost, off, off+n, wholeErr)
		}
		return int(ranges.Load())
	}
	if err != nil {
		t.Fatalf("%s lost %v: ranged read of [%d,%d): %v", code.Name(), lost, off, off+n, err)
	}
	if !bytes.Equal(got, whole[off:off+n]) || !bytes.Equal(got, data[off:off+n]) {
		t.Fatalf("%s lost %v: ranged read of [%d,%d) differs from the whole-chunk decode", code.Name(), lost, off, off+n)
	}
	return int(ranges.Load())
}

// lossSets lists what to lose per chunk: nothing, then every subset of
// as many blocks as the code tolerates.
func lossSets(code erasure.Code) [][]int {
	m, tol := code.EncodedBlocks(), code.EncodedBlocks()-code.MinNeeded()
	out := [][]int{nil}
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == tol {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for e := start; e < m; e++ {
			rec(e+1, append(cur, e))
		}
	}
	if tol > 0 {
		rec(0, nil)
	}
	return out
}

// systematicCodes is every code the ranged path serves.
func systematicCodes() []erasure.Code {
	return []erasure.Code{
		erasure.NewNull(),
		erasure.MustXOR(2), erasure.MustXOR(3), erasure.MustXOR(4), erasure.MustXOR(5),
		erasure.MustRS(2, 1), erasure.MustRS(4, 2), erasure.MustRS(8, 2),
	}
}

func TestRangeReadMatchesWholeDecode(t *testing.T) {
	codes := systematicCodes()
	rng := rand.New(rand.NewSource(30))
	data := randData(31, 10007)
	for _, code := range codes {
		for _, lost := range lossSets(code) {
			moved := 0
			for i := 0; i < 12; i++ {
				d, chunkCap := data, int64(50+rng.Intn(4000))
				if i%4 == 3 { // chunks of fewer bytes than the code has data blocks
					d, chunkCap = data[:37], int64(1+rng.Intn(12))
				}
				off := rng.Int63n(int64(len(d)))
				n := 1 + rng.Int63n(int64(len(d))-off)
				if i%2 == 0 { // small reads: inside one chunk more often than not
					n = 1 + rng.Int63n(min(n, chunkCap))
				}
				moved += checkRangeRead(t, code, d, chunkCap, off, n, lost)
			}
			if moved == 0 {
				t.Errorf("%s lost %v: no read took the ranged path", code.Name(), lost)
			}
		}
	}
}

// The online code is not systematic: a partial read decodes the chunk,
// moves no block range, and still agrees.
func TestRangeReadOnlineFallsBackToChunks(t *testing.T) {
	code := erasure.MustOnline(16, erasure.OnlineOpts{Eps: 0.2, Surplus: 0.5})
	data := randData(32, 50000)
	for _, r := range [][2]int64{{0, 1}, {12345, 678}, {19999, 2}, {49999, 1}, {0, 50000}} {
		if moved := checkRangeRead(t, code, data, 20000, r[0], r[1], nil); moved != 0 {
			t.Fatalf("online code moved %d block ranges", moved)
		}
	}
}

func FuzzRangeRead(f *testing.F) {
	f.Add(int64(1), uint8(1), uint16(5000), uint16(1000), uint16(1234), uint16(77), uint8(0))
	f.Add(int64(2), uint8(0), uint16(100), uint16(7), uint16(99), uint16(1), uint8(1))
	f.Add(int64(3), uint8(6), uint16(9000), uint16(3001), uint16(2990), uint16(40), uint8(9))
	f.Add(int64(4), uint8(3), uint16(3), uint16(3), uint16(0), uint16(3), uint8(2))
	codes := systematicCodes()
	f.Fuzz(func(t *testing.T, seed int64, codeSel uint8, size, chunkCap, off, n uint16, loseSel uint8) {
		if size == 0 {
			return
		}
		code := codes[int(codeSel)%len(codes)]
		data := randData(seed, int(size))
		o := int64(off) % int64(size)
		length := min(int64(n), int64(size)-o)
		sets := lossSets(code)
		// At most 64 chunks, so one input stays cheap.
		chunk := max(int64(chunkCap)%int64(size)+1, int64(size)/64)
		checkRangeRead(t, code, data, chunk, o, length, sets[int(loseSel)%len(sets)])
	})
}

// rangeRig is one xor(2) chunk of 3000 bytes — data blocks 0 and 1,
// parity 2, 1500 bytes each — behind a RangeFetch whose answers a test
// can bend per block.
type rangeRig struct {
	cd      *Codec
	cat     *CAT
	data    []byte
	bend    func(ctx context.Context, e int, honest []byte) ([]byte, bool)
	hedges  atomic.Int64
	reads   atomic.Int64
	rebuilt atomic.Int64
}

func newRangeRig(t *testing.T, hedge time.Duration) *rangeRig {
	rig := &rangeRig{data: randData(33, 3000)}
	code := erasure.MustXOR(2)
	blocks, cat, err := (&Codec{Code: code}).EncodeFile(context.Background(), "f", rig.data, []int64{3000})
	if err != nil {
		t.Fatal(err)
	}
	rig.cat = cat
	stored := blockMap(blocks)
	rig.cd = &Codec{
		Code: code, FetchParallel: 4, HedgeDelay: hedge,
		OnHedge: func(n int) { rig.hedges.Add(int64(n)) },
		OnRangeRead: func(_ int, rebuilt bool) {
			rig.reads.Add(1)
			if rebuilt {
				rig.rebuilt.Add(1)
			}
		},
		RangeFetch: func(ctx context.Context, name string, off, n int64) ([]byte, Releaser, bool) {
			var e int
			for e = 0; BlockName("f", 0, e) != name; e++ {
			}
			d, _ := stored(name)
			d, ok := rig.bend(ctx, e, d[off:off+n])
			return d, nil, ok
		},
	}
	return rig
}

// read reads bytes [100,200) of the chunk: a range of data block 0.
func (rig *rangeRig) read(ctx context.Context) ([]byte, error) {
	dst := make([]byte, 100)
	err := rig.cd.DecodeChunkRange(ctx, rig.cat, 0, 100, dst, nil)
	return dst, err
}

func TestRangeReadHolderFaults(t *testing.T) {
	for name, holder := range map[string]func([]byte) ([]byte, bool){
		"refuses":   func([]byte) ([]byte, bool) { return nil, false },
		"short":     func(h []byte) ([]byte, bool) { return h[:len(h)-1], true },
		"oversized": func(h []byte) ([]byte, bool) { return append(append([]byte(nil), h...), 0), true },
		"empty":     func([]byte) ([]byte, bool) { return []byte{}, true },
	} {
		rig := newRangeRig(t, -1)
		rig.bend = func(_ context.Context, e int, honest []byte) ([]byte, bool) {
			if e == 0 {
				return holder(honest)
			}
			return honest, true
		}
		got, err := rig.read(context.Background())
		if err != nil || !bytes.Equal(got, rig.data[100:200]) {
			t.Errorf("holder %s: err %v, right bytes %v", name, err, bytes.Equal(got, rig.data[100:200]))
		}
		if rig.reads.Load() != 1 || rig.rebuilt.Load() != 1 {
			t.Errorf("holder %s: %d ranges, %d rebuilt, want 1 and 1", name, rig.reads.Load(), rig.rebuilt.Load())
		}
	}
}

// With the holder gone and one of the other blocks lying about the
// length, MinNeeded is out of reach: the read must fail, not hand back
// bytes rebuilt from a wrong-sized range.
func TestRangeReadUnavailable(t *testing.T) {
	rig := newRangeRig(t, -1)
	rig.bend = func(_ context.Context, e int, honest []byte) ([]byte, bool) {
		switch e {
		case 0:
			return nil, false
		case 1:
			return honest[:50], true
		}
		return honest, true
	}
	if _, err := rig.read(context.Background()); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if rig.reads.Load() != 0 {
		t.Fatalf("a failed read reported %d delivered ranges", rig.reads.Load())
	}
}

// A holder that never answers is raced after HedgeDelay: the read
// completes from the other blocks, counts one hedge, and cancels the
// stalled call on its way out.
func TestRangeReadStalledHolderIsRebuilt(t *testing.T) {
	rig := newRangeRig(t, 20*time.Millisecond)
	released := make(chan struct{})
	rig.bend = func(ctx context.Context, e int, honest []byte) ([]byte, bool) {
		if e == 0 {
			<-ctx.Done()
			close(released)
			return nil, false
		}
		return honest, true
	}
	t0 := time.Now()
	got, err := rig.read(context.Background())
	if err != nil || !bytes.Equal(got, rig.data[100:200]) {
		t.Fatalf("err %v, right bytes %v", err, bytes.Equal(got, rig.data[100:200]))
	}
	if took := time.Since(t0); took < 20*time.Millisecond || took > 2*time.Second {
		t.Fatalf("read took %v, want the hedge delay and little more", took)
	}
	if rig.hedges.Load() != 1 || rig.rebuilt.Load() != 1 {
		t.Fatalf("%d hedges, %d rebuilds, want 1 and 1", rig.hedges.Load(), rig.rebuilt.Load())
	}
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("the stalled read was not cancelled when the rebuild won")
	}
}

// A holder that answers while the rebuild it was raced against is still
// out wins, and the answer is its own bytes.
func TestRangeReadSlowHolderStillWins(t *testing.T) {
	rig := newRangeRig(t, 10*time.Millisecond)
	rig.bend = func(ctx context.Context, e int, honest []byte) ([]byte, bool) {
		if e == 0 {
			time.Sleep(50 * time.Millisecond)
			return honest, true
		}
		<-ctx.Done()
		return nil, false
	}
	got, err := rig.read(context.Background())
	if err != nil || !bytes.Equal(got, rig.data[100:200]) {
		t.Fatalf("err %v, right bytes %v", err, bytes.Equal(got, rig.data[100:200]))
	}
	if rig.hedges.Load() != 1 || rig.rebuilt.Load() != 0 {
		t.Fatalf("%d hedges, %d rebuilds, want 1 and 0", rig.hedges.Load(), rig.rebuilt.Load())
	}
}

func TestRangeReadCancel(t *testing.T) {
	rig := newRangeRig(t, 5*time.Millisecond)
	var out atomic.Int64
	rig.bend = func(ctx context.Context, e int, honest []byte) ([]byte, bool) {
		out.Add(1)
		defer out.Add(-1)
		<-ctx.Done()
		return nil, false
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	t0 := time.Now()
	_, err := rig.read(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if took := time.Since(t0); took > 2*time.Second {
		t.Fatalf("cancelled read took %v", took)
	}
	for deadline := time.Now().Add(2 * time.Second); out.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d block reads still running after the cancel", out.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// countingCache is a ChunkCache that serves one chunk and counts.
type countingCache struct {
	chunk      []byte
	gets, puts int
}

func (c *countingCache) GetChunk(*CAT, int) ([]byte, bool) {
	c.gets++
	return c.chunk, c.chunk != nil
}
func (c *countingCache) PutChunk(*CAT, int, []byte) { c.puts++ }

// A partial read is served from a cached chunk and otherwise leaves the
// cache alone; a whole-chunk read populates it as it always did.
func TestRangeReadAndTheCache(t *testing.T) {
	ctx := context.Background()
	code := erasure.MustXOR(2)
	data := randData(34, 3000)
	blocks, cat, err := (&Codec{Code: code}).EncodeFile(ctx, "f", data, []int64{3000})
	if err != nil {
		t.Fatal(err)
	}
	var moved int
	cache := &countingCache{}
	cd := &Codec{Code: code, Cache: cache, OnRangeRead: func(int, bool) { moved++ }}
	fetch := blockMap(blocks)

	dst := make([]byte, 10)
	if err := cd.DecodeChunkRange(ctx, cat, 0, 1495, dst, fetch); err != nil || !bytes.Equal(dst, data[1495:1505]) {
		t.Fatalf("cold partial read: %v", err)
	}
	if moved != 2 || cache.puts != 0 {
		t.Fatalf("cold partial read across two blocks moved %d ranges and made %d cache inserts, want 2 and 0", moved, cache.puts)
	}
	whole := make([]byte, 3000)
	if err := cd.DecodeChunkRange(ctx, cat, 0, 0, whole, fetch); err != nil || !bytes.Equal(whole, data) {
		t.Fatalf("whole-chunk read: %v", err)
	}
	if moved != 2 || cache.puts != 1 {
		t.Fatalf("whole-chunk read moved %d ranges and made %d cache inserts, want 2 and 1", moved, cache.puts)
	}
	cache.chunk = data
	if err := cd.DecodeChunkRange(ctx, cat, 0, 7, dst, func(string) ([]byte, bool) {
		t.Error("a cached chunk cost a block fetch")
		return nil, false
	}); err != nil || !bytes.Equal(dst, data[7:17]) {
		t.Fatalf("cached partial read: %v", err)
	}
	for _, bad := range []struct {
		ci int
		lo int64
		n  int
	}{{-1, 0, 1}, {1, 0, 1}, {0, -1, 1}, {0, 2999, 2}} {
		if err := cd.DecodeChunkRange(ctx, cat, bad.ci, bad.lo, make([]byte, bad.n), fetch); err == nil {
			t.Errorf("DecodeChunkRange(%+v) succeeded", bad)
		}
	}
}
