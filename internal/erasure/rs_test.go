package erasure

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGF256Axioms(t *testing.T) {
	// Multiplicative group: a * inv(a) == 1 for all nonzero a.
	for a := 1; a < 256; a++ {
		if gfMul(byte(a), gfInv(byte(a))) != 1 {
			t.Fatalf("inv broken for %d", a)
		}
	}
	// Distributivity sample.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("distributivity broken: %d %d %d", a, b, c)
		}
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatal("commutativity broken")
		}
	}
	if gfMul(0, 77) != 0 || gfMul(77, 0) != 0 {
		t.Fatal("zero annihilator broken")
	}
	if gfPow(3, 0) != 1 || gfPow(0, 5) != 0 {
		t.Fatal("pow edge cases broken")
	}
}

func TestGFMatrixInvert(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		m := newGFMatrix(n, n)
		for i := range m.d {
			m.d[i] = byte(rng.Intn(256))
		}
		inv, ok := m.invert()
		if !ok {
			continue // singular draw; fine
		}
		prod := m.mul(inv)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				want := byte(0)
				if r == c {
					want = 1
				}
				if prod.at(r, c) != want {
					t.Fatalf("m * m^-1 != I at (%d,%d)", r, c)
				}
			}
		}
	}
	// Singular matrix rejected.
	s := newGFMatrix(2, 2)
	s.set(0, 0, 1)
	s.set(0, 1, 2)
	s.set(1, 0, 1)
	s.set(1, 1, 2)
	if _, ok := s.invert(); ok {
		t.Fatal("singular matrix inverted")
	}
}

func TestRSRoundTripAllBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := MustRS(4, 2)
	chunk := randChunk(rng, 10000)
	blocks, err := c.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 6 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	got, err := c.Decode(blocks, len(chunk))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, chunk) {
		t.Fatal("rs full round trip mismatch")
	}
}

func TestRSSystematic(t *testing.T) {
	c := MustRS(3, 2)
	chunk := []byte("abcdefghij")
	blocks, _ := c.Encode(chunk)
	// Data blocks hold the chunk verbatim.
	joined := append(append(append([]byte{}, blocks[0].Data...), blocks[1].Data...), blocks[2].Data...)
	if !bytes.HasPrefix(joined, chunk) {
		t.Fatal("rs not systematic")
	}
}

func TestRSDecodesFromAnyNSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := MustRS(4, 3) // 7 blocks, any 4 decode
	chunk := randChunk(rng, 8191)
	blocks, err := c.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustively try every 4-subset of the 7 blocks.
	idx := []int{0, 1, 2, 3, 4, 5, 6}
	var rec func(start int, chosen []Block)
	tried := 0
	rec = func(start int, chosen []Block) {
		if len(chosen) == 4 {
			tried++
			got, err := c.Decode(chosen, len(chunk))
			if err != nil {
				t.Fatalf("subset decode failed: %v", err)
			}
			if !bytes.Equal(got, chunk) {
				t.Fatal("subset decode mismatch")
			}
			return
		}
		for i := start; i < len(idx); i++ {
			rec(i+1, append(chosen, blocks[idx[i]]))
		}
	}
	rec(0, nil)
	if tried != 35 { // C(7,4)
		t.Fatalf("tried %d subsets, want 35", tried)
	}
}

func TestRSInsufficient(t *testing.T) {
	c := MustRS(4, 2)
	chunk := make([]byte, 100)
	blocks, _ := c.Encode(chunk)
	if _, err := c.Decode(blocks[:3], len(chunk)); err != ErrInsufficient {
		t.Fatalf("err = %v", err)
	}
}

func TestRSRejectsBadParams(t *testing.T) {
	if _, err := NewRS(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewRS(1, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewRS(200, 100); err == nil {
		t.Error("n+k>255 accepted")
	}
}

func TestRSWideStripe(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := MustRS(16, 4)
	chunk := randChunk(rng, 1<<16)
	blocks, err := c.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	// Drop 4 random blocks (the maximum tolerable).
	perm := rng.Perm(len(blocks))
	var sub []Block
	for _, i := range perm[:16] {
		sub = append(sub, blocks[i])
	}
	got, err := c.Decode(sub, len(chunk))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, chunk) {
		t.Fatal("wide stripe recovery mismatch")
	}
}

// Property: RS round-trips arbitrary payloads after losing any k blocks.
func TestRSLossProperty(t *testing.T) {
	c := MustRS(5, 3)
	f := func(payload []byte, seed int64) bool {
		if len(payload) == 0 {
			return true
		}
		blocks, err := c.Encode(payload)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(blocks))
		var sub []Block
		for _, i := range perm[:5] {
			sub = append(sub, blocks[i])
		}
		got, err := c.Decode(sub, len(payload))
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRSSimSpec(t *testing.T) {
	s := RSSimSpec(4, 2)
	if s.DataBlocks != 4 || s.TotalBlocks != 6 || s.MinNeeded != 4 || s.Tolerates() != 2 {
		t.Fatalf("spec = %+v", s)
	}
}

func TestRSEmptyChunk(t *testing.T) {
	c := MustRS(4, 2)
	blocks, err := c.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(blocks, 0)
	if err != nil || len(got) != 0 {
		t.Fatal("empty chunk handling broken")
	}
}

func BenchmarkRSEncode4MB(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	c := MustRS(16, 4)
	chunk := randChunk(rng, 4<<20)
	b.SetBytes(4 << 20)
	for b.Loop() {
		if _, err := c.Encode(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSDecodeWorstCase4MB(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	c := MustRS(16, 4)
	chunk := randChunk(rng, 4<<20)
	blocks, err := c.Encode(chunk)
	if err != nil {
		b.Fatal(err)
	}
	// Lose 4 data blocks: full matrix-inversion path.
	sub := append([]Block{}, blocks[4:]...)
	b.SetBytes(4 << 20)
	for b.Loop() {
		if _, err := c.Decode(sub, len(chunk)); err != nil {
			b.Fatal(err)
		}
	}
}
