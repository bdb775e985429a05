package erasure

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func randChunk(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestNullRoundTrip(t *testing.T) {
	c := NewNull()
	chunk := []byte("hello contributory storage")
	blocks, err := c.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 {
		t.Fatalf("null produced %d blocks", len(blocks))
	}
	got, err := c.Decode(blocks, len(chunk))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, chunk) {
		t.Fatal("null round trip mismatch")
	}
}

func TestNullDecodeMissing(t *testing.T) {
	c := NewNull()
	if _, err := c.Decode(nil, 10); err != ErrInsufficient {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
}

func TestNullEncodeCopies(t *testing.T) {
	c := NewNull()
	chunk := []byte{1, 2, 3}
	blocks, _ := c.Encode(chunk)
	chunk[0] = 99
	if blocks[0].Data[0] != 1 {
		t.Fatal("null Encode aliased caller's buffer")
	}
}

func TestXORRoundTripAllSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := MustXOR(2)
	chunk := randChunk(rng, 1000)
	blocks, err := c.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 3 {
		t.Fatalf("xor(2) produced %d blocks, want 3", len(blocks))
	}
	// Every 2-of-3 subset must decode.
	for drop := 0; drop < 3; drop++ {
		var sub []Block
		for i, b := range blocks {
			if i != drop {
				sub = append(sub, b)
			}
		}
		got, err := c.Decode(sub, len(chunk))
		if err != nil {
			t.Fatalf("drop %d: %v", drop, err)
		}
		if !bytes.Equal(got, chunk) {
			t.Fatalf("drop %d: mismatch", drop)
		}
	}
}

func TestXORTwoLossesFail(t *testing.T) {
	c := MustXOR(2)
	chunk := []byte("0123456789")
	blocks, _ := c.Encode(chunk)
	if _, err := c.Decode(blocks[:1], len(chunk)); err != ErrInsufficient {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
}

func TestXORWiderStripe(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := MustXOR(7)
	chunk := randChunk(rng, 12345) // not divisible by 7
	blocks, err := c.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 8 {
		t.Fatalf("xor(7) produced %d blocks", len(blocks))
	}
	// Drop a middle data block.
	sub := append(append([]Block{}, blocks[:3]...), blocks[4:]...)
	got, err := c.Decode(sub, len(chunk))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, chunk) {
		t.Fatal("xor(7) recovery mismatch")
	}
}

func TestXOREmptyChunk(t *testing.T) {
	c := MustXOR(2)
	blocks, err := c.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(blocks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty chunk decoded to %d bytes", len(got))
	}
}

func TestXORTinyChunk(t *testing.T) {
	c := MustXOR(4)
	chunk := []byte{0xAA} // smaller than n
	blocks, err := c.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(blocks[1:], len(chunk)) // drop block 0
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, chunk) {
		t.Fatal("tiny chunk recovery mismatch")
	}
}

func TestNewXORRejectsBadN(t *testing.T) {
	if _, err := NewXOR(0); err == nil {
		t.Error("NewXOR(0) accepted")
	}
}

// Property: XOR round-trips arbitrary payloads with any single loss.
func TestXORProperty(t *testing.T) {
	c := MustXOR(3)
	f := func(payload []byte, drop uint8) bool {
		if len(payload) == 0 {
			return true
		}
		blocks, err := c.Encode(payload)
		if err != nil {
			return false
		}
		d := int(drop) % len(blocks)
		sub := append(append([]Block{}, blocks[:d]...), blocks[d+1:]...)
		got, err := c.Decode(sub, len(payload))
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSpecTolerates(t *testing.T) {
	if XOR23Spec.Tolerates() != 1 {
		t.Errorf("xor23 tolerates %d, want 1", XOR23Spec.Tolerates())
	}
	if OnlineSimSpec.Tolerates() != 2 {
		t.Errorf("online sim tolerates %d, want 2", OnlineSimSpec.Tolerates())
	}
	if NullSpec.Tolerates() != 0 {
		t.Errorf("null tolerates %d, want 0", NullSpec.Tolerates())
	}
}

func TestSpecDecodable(t *testing.T) {
	if !XOR23Spec.Decodable(2) || XOR23Spec.Decodable(1) {
		t.Error("xor23 decodability wrong")
	}
}

func TestSpecOverhead(t *testing.T) {
	if got := XOR23Spec.Overhead(); got != 0.5 {
		t.Errorf("xor23 overhead = %g, want 0.5", got)
	}
}

func TestSpecOf(t *testing.T) {
	s := SpecOf(MustXOR(2))
	if s.DataBlocks != 2 || s.TotalBlocks != 3 || s.MinNeeded != 2 {
		t.Errorf("SpecOf(xor2) = %+v", s)
	}
}

// allocatedBy returns the heap bytes fn allocates (TotalAlloc delta).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSystematicEncodeAliasesChunk pins the copy the systematic codes
// no longer make: xor and rs data blocks are views of the chunk, so an
// Encode allocates its parity and — only when the length does not
// divide — one zero-padded tail block, never a second copy of the
// chunk; and it never writes to its input.
func TestSystematicEncodeAliasesChunk(t *testing.T) {
	const slack = 32 << 10 // block headers; each large buffer rounds up to a page
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		name   string
		code   Code
		parity int // parity blocks
	}{
		{"xor(2,3)", MustXOR(2), 1},
		{"rs(8,2)", MustRS(8, 2), 2},
	} {
		for _, size := range []int{1 << 20, 1<<20 + 3} {
			chunk := randChunk(rng, size)
			orig := append([]byte(nil), chunk...)
			n := tc.code.DataBlocks()
			bs := blockSize(size, n)
			budget := uint64(tc.parity*bs + slack)
			if size%n != 0 {
				budget += uint64(bs)
			}
			var blocks []Block
			var err error
			got := allocatedBy(func() { blocks, err = tc.code.Encode(chunk) })
			if err != nil {
				t.Fatal(err)
			}
			if got > budget {
				t.Errorf("%s, %d bytes: Encode allocated %d, budget %d", tc.name, size, got, budget)
			}
			if !bytes.Equal(chunk, orig) {
				t.Fatalf("%s, %d bytes: Encode modified its input", tc.name, size)
			}
			if &blocks[0].Data[0] != &chunk[0] {
				t.Errorf("%s, %d bytes: data block 0 is a copy, not a view of the chunk", tc.name, size)
			}
			dec, err := tc.code.Decode(blocks[tc.parity:], size)
			if err != nil || !bytes.Equal(dec, orig) {
				t.Fatalf("%s, %d bytes: decode without the first %d blocks: err %v", tc.name, size, tc.parity, err)
			}
		}
	}
}

// TestSplitViewsTail covers the shapes where padding spans more than
// the last block: the partial block and every all-padding block after
// it must be zero-filled copies, the full blocks views.
func TestSplitViewsTail(t *testing.T) {
	for _, tc := range []struct{ size, n int }{{0, 4}, {1, 4}, {5, 4}, {8, 4}, {9, 4}, {1000, 64}} {
		chunk := randChunk(rand.New(rand.NewSource(int64(tc.size))), tc.size)
		blocks := splitViews(chunk, tc.n, make([]byte, tailLen(tc.size, tc.n)))
		bs := blockSize(tc.size, tc.n)
		if len(blocks) != tc.n {
			t.Fatalf("%d/%d: %d blocks", tc.size, tc.n, len(blocks))
		}
		padded := make([]byte, tc.n*bs)
		copy(padded, chunk)
		for i, b := range blocks {
			if !bytes.Equal(b, padded[i*bs:(i+1)*bs]) {
				t.Fatalf("%d/%d: block %d differs from the zero-padded chunk", tc.size, tc.n, i)
			}
		}
	}
}
