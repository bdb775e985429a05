package erasure

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// TestDecodeRobustToGarbage feeds each decoder random, malformed, and
// inconsistent block sets. Decoders must never panic — they return data
// (integrity is the layer above's concern) or ErrInsufficient.
func TestDecodeRobustToGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	codes := []Code{
		NewNull(),
		MustXOR(2),
		MustXOR(7),
		MustRS(4, 2),
		MustOnline(32, OnlineOpts{Eps: 0.3, Surplus: 0.3}),
	}
	for _, c := range codes {
		for trial := 0; trial < 200; trial++ {
			nBlocks := rng.Intn(12)
			blocks := make([]Block, nBlocks)
			for i := range blocks {
				blocks[i] = Block{
					Index: rng.Intn(20) - 2, // includes negatives and out-of-range
					Data:  make([]byte, rng.Intn(64)),
				}
				rng.Read(blocks[i].Data)
			}
			// Seed-corpus case: force duplicate indices into some trials
			// so decoders see the same index with differing payloads.
			if nBlocks >= 2 && trial%3 == 0 {
				blocks[nBlocks-1].Index = blocks[0].Index
			}
			chunkLen := rng.Intn(256)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s panicked on garbage: %v", c.Name(), r)
					}
				}()
				_, _ = c.Decode(blocks, chunkLen)
			}()
		}
	}
}

// TestDecodeRobustToDuplicates supplies the same block many times; the
// decoders must handle duplicates without double-counting. The online
// code is included: its peeling decoder sees duplicate indices whenever
// a repair re-fetches a block the reader already holds.
func TestDecodeRobustToDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	chunk := randChunk(rng, 4096)
	for _, c := range []Code{MustXOR(2), MustRS(4, 2), MustOnline(16, OnlineOpts{Eps: 0.3, Surplus: 0.3})} {
		blocks, err := c.Encode(chunk)
		if err != nil {
			t.Fatal(err)
		}
		// MinNeeded copies of block 0 only: insufficient despite count.
		dup := make([]Block, 0, c.MinNeeded())
		for i := 0; i < c.MinNeeded(); i++ {
			dup = append(dup, blocks[0])
		}
		if _, err := c.Decode(dup, len(chunk)); err == nil && c.MinNeeded() > 1 {
			t.Fatalf("%s decoded from duplicates of one block", c.Name())
		}
	}
}

// TestCodesInterfaceContract checks every implementation satisfies the
// structural relationships the storage layer depends on.
func TestCodesInterfaceContract(t *testing.T) {
	codes := []Code{
		NewNull(),
		MustXOR(2),
		MustXOR(9),
		MustRS(4, 2),
		MustRS(16, 4),
		MustOnline(64, OnlineOpts{Eps: 0.2, Surplus: 0.2}),
		MustOnline(4096, OnlineOpts{}),
	}
	for _, c := range codes {
		if c.DataBlocks() < 1 {
			t.Errorf("%s: DataBlocks %d", c.Name(), c.DataBlocks())
		}
		if c.EncodedBlocks() < c.DataBlocks() {
			t.Errorf("%s: EncodedBlocks %d < DataBlocks %d", c.Name(), c.EncodedBlocks(), c.DataBlocks())
		}
		if c.MinNeeded() < c.DataBlocks() || c.MinNeeded() > c.EncodedBlocks() {
			t.Errorf("%s: MinNeeded %d outside [n, m]", c.Name(), c.MinNeeded())
		}
		spec := SpecOf(c)
		if spec.Tolerates() != c.EncodedBlocks()-c.MinNeeded() {
			t.Errorf("%s: spec tolerance inconsistent", c.Name())
		}
	}
}

// FuzzOnlineDecode throws arbitrary block soups at small online codes
// across every schedule. The decoder must never panic and never write
// an input block, and whenever it claims success after blocks derived
// from a real encode — through Decode, or DecodeInto into a dst left
// dirty — the output must be the chunk's exact bytes (integrity of
// tampered data is the layer above's concern, so success on mangled
// inputs is only checked for crashes, not content).
func FuzzOnlineDecode(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(0), []byte("seed corpus payload for the online decoder"))
	f.Add(int64(7), uint8(3), uint8(1), []byte{0})
	f.Add(int64(42), uint8(64), uint8(2), bytes.Repeat([]byte{0xa5}, 200))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, schedRaw uint8, data []byte) {
		n := int(nRaw)%64 + 1
		scheds := Schedules()
		sched := scheds[int(schedRaw)%len(scheds)]
		c, err := NewOnline(n, OnlineOpts{Eps: 0.3, Surplus: 0.3, Seed: seed | 1, Schedule: sched})
		if err != nil {
			t.Fatal(err)
		}
		// Arbitrary garbage blocks: indices and sizes from the data.
		rng := rand.New(rand.NewSource(seed))
		garbage := make([]Block, 0, 8)
		for i := 0; i+2 < len(data) && i < 24; i += 3 {
			bl := Block{Index: int(int8(data[i])), Data: make([]byte, int(data[i+1])%40)}
			rng.Read(bl.Data)
			garbage = append(garbage, bl)
		}
		sums := sumBlocks(garbage)
		_, _ = c.Decode(garbage, len(data)) // must not panic
		_ = c.DecodeInto(bytes.Repeat([]byte{0xa5}, len(data)), garbage)
		if !slices.Equal(sums, sumBlocks(garbage)) {
			t.Fatalf("n=%d sched=%s: decoding garbage wrote an input block", n, sched.Name())
		}
		// Real encode, fuzz-driven subset + duplicates, then decode.
		chunk := make([]byte, len(data)+1)
		copy(chunk, data)
		blocks, err := c.Encode(chunk)
		if err != nil {
			t.Fatal(err)
		}
		sub := make([]Block, 0, len(blocks))
		for i, b := range blocks {
			if len(data) == 0 || data[i%len(data)]%4 != 0 { // keep ~75%
				sub = append(sub, b)
			}
			if len(data) > 0 && data[i%len(data)]%5 == 0 {
				sub = append(sub, b) // duplicate
			}
		}
		sums = sumBlocks(sub)
		got, err := c.Decode(sub, len(chunk))
		if err == nil && !bytes.Equal(got, chunk) {
			t.Fatalf("n=%d sched=%s: decode claimed success with wrong bytes", n, sched.Name())
		}
		dst := bytes.Repeat([]byte{0xa5}, len(chunk))
		errInto := c.DecodeInto(dst, sub)
		if (errInto == nil) != (err == nil) {
			t.Fatalf("n=%d sched=%s: DecodeInto err %v, Decode err %v", n, sched.Name(), errInto, err)
		}
		if errInto == nil && !bytes.Equal(dst, chunk) {
			t.Fatalf("n=%d sched=%s: DecodeInto into a dirty dst claimed success with wrong bytes", n, sched.Name())
		}
		if !slices.Equal(sums, sumBlocks(sub)) {
			t.Fatalf("n=%d sched=%s: decoding wrote an input block", n, sched.Name())
		}
	})
}

// FuzzScheduleRoundTrip fuzzes each schedule over code size, seed and
// chunk bytes. The code's guarantee is probabilistic *and rateless*:
// the stored set decodes with high probability, and on the rare
// rank-deficient draw a reader fetches freshly minted check blocks
// until it succeeds. The property checked is that guarantee — decode
// must succeed within 2·n' extra fresh blocks, and the output must
// match. n is kept ≥ 8 because tiny codes are genuinely degenerate (at
// n' = 2 every degree-2 check repeats the single outer-code equation,
// so no block set pins the message), which is a property of the
// construction, not a decoder bug.
func FuzzScheduleRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(32), int64(13), []byte("round trip me"))
	f.Add(uint8(1), uint8(1), int64(101), []byte{})
	f.Add(uint8(1), uint8(200), int64(51), bytes.Repeat([]byte{7}, 64))
	f.Fuzz(func(t *testing.T, schedRaw, nRaw uint8, seed int64, data []byte) {
		scheds := Schedules()
		sched := scheds[int(schedRaw)%len(scheds)]
		n := int(nRaw)%96 + 8
		c, err := NewOnline(n, OnlineOpts{Eps: 0.25, Surplus: 0.35, Seed: seed | 1, Schedule: sched})
		if err != nil {
			t.Fatal(err)
		}
		chunk := append([]byte{}, data...)
		blocks, err := c.Encode(chunk)
		if err != nil {
			t.Fatal(err)
		}
		extraCap := 2 * (n + c.NumAux())
		var got []byte
		for {
			got, err = c.Decode(blocks, len(chunk))
			if err == nil {
				break
			}
			if len(blocks) >= c.EncodedBlocks()+extraCap {
				t.Fatalf("n=%d sched=%s seed=%d: still undecodable after %d fresh blocks: %v",
					n, sched.Name(), seed, extraCap, err)
			}
			fb, err := c.FreshBlock(chunk, len(blocks))
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, fb)
		}
		if !bytes.Equal(got, chunk) {
			t.Fatalf("n=%d sched=%s seed=%d: round-trip mismatch", n, sched.Name(), seed)
		}
	})
}
