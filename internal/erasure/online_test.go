package erasure

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestOnlineRoundTripAllBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := MustOnline(64, OnlineOpts{})
	chunk := randChunk(rng, 64*512+17)
	blocks, err := c.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != c.EncodedBlocks() {
		t.Fatalf("encoded %d blocks, want %d", len(blocks), c.EncodedBlocks())
	}
	got, err := c.Decode(blocks, len(chunk))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, chunk) {
		t.Fatal("online round trip mismatch")
	}
}

func TestOnlineToleratesLosses(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := MustOnline(128, OnlineOpts{Surplus: 0.10})
	chunk := randChunk(rng, 128*256)
	blocks, err := c.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	// Drop 5% of blocks at random; surplus of 10% should still decode.
	perm := rng.Perm(len(blocks))
	keep := perm[:len(blocks)-len(blocks)/20]
	sub := make([]Block, 0, len(keep))
	for _, i := range keep {
		sub = append(sub, blocks[i])
	}
	got, err := c.Decode(sub, len(chunk))
	if err != nil {
		t.Fatalf("decode after 5%% loss: %v", err)
	}
	if !bytes.Equal(got, chunk) {
		t.Fatal("online lossy decode mismatch")
	}
}

func TestOnlineInsufficientBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := MustOnline(64, OnlineOpts{})
	chunk := randChunk(rng, 64*64)
	blocks, _ := c.Encode(chunk)
	// Far fewer than n blocks can never decode. The error wraps
	// ErrInsufficient with the code shape and resolution progress.
	_, err := c.Decode(blocks[:8], len(chunk))
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
	for _, want := range []string{"n=64", "8 distinct blocks"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing context %q", err, want)
		}
	}
}

func TestOnlineFreshBlockRepairs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	// Small n needs a larger ε: the ε=0.01 distribution is tuned for
	// thousands of blocks (the paper's 4096-block chunks).
	c := MustOnline(64, OnlineOpts{Eps: 0.2, Surplus: 0.2})
	chunk := randChunk(rng, 64*128+5)
	blocks, _ := c.Encode(chunk)
	// Lose blocks 0 and 1, mint replacements with fresh indices.
	sub := append([]Block{}, blocks[2:]...)
	for i := 0; i < 4; i++ {
		fb, err := c.FreshBlock(chunk, c.EncodedBlocks()+i)
		if err != nil {
			t.Fatal(err)
		}
		sub = append(sub, fb)
	}
	got, err := c.Decode(sub, len(chunk))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, chunk) {
		t.Fatal("repair decode mismatch")
	}
}

// TestOnlineDecodeDuplicateIndices is the regression test for the
// decoder's duplicate handling: repeated copies of a block index must
// neither inflate the decoder's information nor corrupt the peel, even
// when the extra copies carry inconsistent data.
func TestOnlineDecodeDuplicateIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := MustOnline(64, OnlineOpts{Eps: 0.2, Surplus: 0.2})
	chunk := randChunk(rng, 64*128+9)
	blocks, err := c.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	// Full set plus duplicated copies of the first blocks decodes.
	withDups := append(append([]Block{}, blocks...), blocks[0], blocks[1], blocks[0])
	got, err := c.Decode(withDups, len(chunk))
	if err != nil {
		t.Fatalf("decode with duplicates: %v", err)
	}
	if !bytes.Equal(got, chunk) {
		t.Fatal("duplicate-tolerant decode mismatch")
	}
	// An inconsistent duplicate (same index, corrupted data) must be
	// ignored in favor of the first copy.
	bad := append([]Block{}, blocks...)
	corrupt := append([]byte(nil), blocks[3].Data...)
	corrupt[0] ^= 0xff
	bad = append(bad, Block{Index: blocks[3].Index, Data: corrupt})
	got, err = c.Decode(bad, len(chunk))
	if err != nil {
		t.Fatalf("decode with inconsistent duplicate: %v", err)
	}
	if !bytes.Equal(got, chunk) {
		t.Fatal("inconsistent duplicate corrupted the decode")
	}
	// Many duplicates of too few distinct blocks stay insufficient.
	few := blocks[:8]
	dups := make([]Block, 0, 64)
	for i := 0; i < 8; i++ {
		dups = append(dups, few...)
	}
	if _, err := c.Decode(dups, len(chunk)); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient from duplicated subset", err)
	}
}

func TestOnlineFreshBlockRejectsNegative(t *testing.T) {
	c := MustOnline(4, OnlineOpts{})
	if _, err := c.FreshBlock([]byte{1, 2, 3, 4}, -1); err == nil {
		t.Error("negative index accepted")
	}
}

func TestOnlineDeterministicAcrossInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	chunk := randChunk(rng, 4096)
	enc := MustOnline(32, OnlineOpts{Seed: 42, Eps: 0.3, Surplus: 0.3})
	dec := MustOnline(32, OnlineOpts{Seed: 42, Eps: 0.3, Surplus: 0.3})
	blocks, err := enc.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Decode(blocks, len(chunk))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, chunk) {
		t.Fatal("separate decoder instance failed: equation derivation not deterministic")
	}
}

func TestOnlineDifferentSeedsDiffer(t *testing.T) {
	chunk := make([]byte, 1024)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	a, _ := MustOnline(16, OnlineOpts{Seed: 1}).Encode(chunk)
	b, _ := MustOnline(16, OnlineOpts{Seed: 2}).Encode(chunk)
	same := true
	for i := range a {
		if !bytes.Equal(a[i].Data, b[i].Data) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical encodings")
	}
}

func TestOnlineSizeOverheadSmall(t *testing.T) {
	// Paper Table 2: 4 MB chunk, 4096 blocks, q=3, ε=0.01 encodes to
	// ~4.12 MB (≈3% overhead). Verify our stored-size overhead is in the
	// single-digit-percent range, nothing like XOR's 50%.
	c := MustOnline(4096, OnlineOpts{})
	overhead := float64(c.EncodedBlocks())/float64(c.DataBlocks()) - 1
	if overhead <= 0 || overhead > 0.08 {
		t.Fatalf("online overhead = %.4f, want (0, 0.08]", overhead)
	}
}

func TestOnlinePaperScaleRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("4 MB chunk encode in -short mode")
	}
	rng := rand.New(rand.NewSource(16))
	c := MustOnline(4096, OnlineOpts{})
	chunk := randChunk(rng, 4<<20)
	blocks, err := c.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(blocks, len(chunk))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, chunk) {
		t.Fatal("paper-scale round trip mismatch")
	}
}

func TestOnlineRejectsBadParams(t *testing.T) {
	if _, err := NewOnline(0, OnlineOpts{}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewOnline(4, OnlineOpts{Eps: 2}); err == nil {
		t.Error("eps=2 accepted")
	}
}

func TestOnlineEmptyChunk(t *testing.T) {
	c := MustOnline(4, OnlineOpts{})
	blocks, err := c.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(blocks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("empty chunk decode mismatch")
	}
}

func TestDegreeCDFShape(t *testing.T) {
	cdf := degreeCDF(0.01)
	if cdf[len(cdf)-1] != 1 {
		t.Fatalf("CDF does not end at 1: %g", cdf[len(cdf)-1])
	}
	for i := 2; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatalf("CDF not monotone at %d", i)
		}
	}
	// F for ε=0.01 should be ~2115 per the formula.
	if len(cdf)-1 < 2000 || len(cdf)-1 > 2300 {
		t.Errorf("F = %d, expected ≈2115", len(cdf)-1)
	}
}

func TestOnlineWaterfallSurplus(t *testing.T) {
	// At the paper's ~3% size overhead (Surplus 0.02) belief
	// propagation stalls at n=4096 (finite-size effect); the decoder
	// inactivates a handful of columns and finishes via the small
	// residual solve. A ~5-6% surplus crosses the BP waterfall and
	// peeling completes outright. Inactivation shrinks the former ML
	// fallback to tens of columns, so the 2%-surplus decode must now
	// stay within a small factor of the pure-BP decode instead of the
	// order-of-magnitude gap the whole-residual GE used to cost.
	if testing.Short() {
		t.Skip("4 MB encodes in -short mode")
	}
	rng := rand.New(rand.NewSource(77))
	chunk := randChunk(rng, 4<<20)
	decode := func(surplus float64) (DecodeStats, time.Duration) {
		c := MustOnline(4096, OnlineOpts{Surplus: surplus})
		blocks, err := c.Encode(chunk)
		if err != nil {
			t.Fatal(err)
		}
		// Best of 3: one-shot wall clock on a shared CI runner can eat a
		// descheduling or GC pause; the minimum is the stable signal.
		var st DecodeStats
		best := time.Duration(1<<62 - 1)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			got, s, err := c.DecodeWithStats(blocks, len(chunk))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, chunk) {
				t.Fatal("decode mismatch")
			}
			if d := time.Since(t0); d < best {
				best = d
			}
			st = s
		}
		return st, best
	}
	low, slow := decode(0.02)
	high, fast := decode(0.06)
	if low.BPComplete {
		t.Error("2% surplus: expected a BP stall (the finite-size effect this test documents)")
	}
	if low.Inactivated <= 0 || low.Inactivated > 200 {
		t.Errorf("2%% surplus: %d inactivated columns, want a small positive count", low.Inactivated)
	}
	if !high.BPComplete {
		t.Errorf("6%% surplus: BP did not complete (%d inactivated)", high.Inactivated)
	}
	if slow > 6*fast {
		t.Errorf("inactivation not effective: decode %v at 2%% surplus vs %v at 6%%", slow, fast)
	}
}

func TestOnlineMinNeededBound(t *testing.T) {
	c := MustOnline(100, OnlineOpts{})
	if c.MinNeeded() < c.DataBlocks() {
		t.Error("MinNeeded below n")
	}
	if c.MinNeeded() > c.EncodedBlocks() {
		t.Error("MinNeeded above stored blocks")
	}
}

// TestDecodeSteadyStateAllocs pins the decoder's steady-state
// allocation count: with the pooled decode scratch (column slots,
// dedupe bitmap, inactive-set masks, constraint rows) a warm decode
// allocates a handful of objects — the output and pool bookkeeping —
// not one buffer per received block. The PR 2 decoder
// sat at ~4.4k allocs per 4096-block decode; a regression toward
// per-block allocation blows straight past this bound.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	c := MustOnline(1024, OnlineOpts{})
	chunk := randChunk(rng, 1024*256)
	blocks, err := c.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the scratch pool so the measurement sees the steady state.
	if _, _, err := c.DecodeWithStats(blocks, len(chunk)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := c.DecodeWithStats(blocks, len(chunk)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Errorf("steady-state decode: %.0f allocs/op, want <= 100 (per-block allocation regression)", allocs)
	}
}

func BenchmarkOnlineEncode4MB(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	c := MustOnline(4096, OnlineOpts{})
	chunk := randChunk(rng, 4<<20)
	b.SetBytes(4 << 20)
	for b.Loop() {
		if _, err := c.Encode(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOnlineDecode4MB(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	c := MustOnline(4096, OnlineOpts{})
	chunk := randChunk(rng, 4<<20)
	blocks, err := c.Encode(chunk)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4 << 20)
	for b.Loop() {
		if _, err := c.Decode(blocks, len(chunk)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXOREncode4MB(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	c := MustXOR(2)
	chunk := randChunk(rng, 4<<20)
	b.SetBytes(4 << 20)
	for b.Loop() {
		if _, err := c.Encode(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

// bigcopyDecode is the online decode the bigcopy workload runs per
// chunk: core.CodeFor's online shape (n = 64, ε = 0.2, 20 % surplus,
// banded), a 16 MiB chunk, and a seeded subset of MinNeeded of its
// blocks that decodes (subsets are redrawn until one does, since a
// rateless decode at the threshold may fall short).
func bigcopyDecode(tb testing.TB) (c *Online, chunk []byte, sub []Block) {
	tb.Helper()
	rng := rand.New(rand.NewSource(61))
	c = MustOnline(64, OnlineOpts{Eps: 0.2, Surplus: 0.2, Schedule: Banded()})
	chunk = randChunk(rng, 16<<20)
	blocks, err := c.Encode(chunk)
	if err != nil {
		tb.Fatal(err)
	}
	for range 100 {
		rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
		sub = blocks[:c.MinNeeded()]
		if _, err := c.Decode(sub, len(chunk)); err == nil {
			return c, chunk, sub
		}
	}
	tb.Fatal("no decodable MinNeeded subset in 100 draws")
	return nil, nil, nil
}

func BenchmarkOnlineDecodeInto16MB(b *testing.B) {
	c, chunk, sub := bigcopyDecode(b)
	dst := make([]byte, len(chunk))
	b.SetBytes(int64(len(chunk)))
	b.ReportAllocs()
	for b.Loop() {
		if err := c.DecodeInto(dst, sub); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOnlineDecodeScratchBound guards the in-place decode's memory at
// bigcopy's shape: the received blocks are read where they lie and the
// message columns land in dst, so the pooled scratch holds only the aux
// columns and the padded tail — (numAux + 1)·bs at most, where copying
// the received blocks in took (MinNeeded + numAux)·bs, 31.5 MiB.
func TestOnlineDecodeScratchBound(t *testing.T) {
	c, chunk, sub := bigcopyDecode(t)
	bs := blockSize(len(chunk), c.DataBlocks())
	var ds decodeScratch
	dst := make([]byte, len(chunk))
	if _, _, err := c.decodeWith(&ds, dst, len(dst), sub); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, chunk) {
		t.Fatal("decode returned wrong bytes")
	}
	if got, limit := cap(ds.values), (c.NumAux()+1)*bs; got > limit {
		t.Errorf("value scratch holds %d bytes after a %d-block decode, want <= %d ((numAux+1)·bs)", got, len(sub), limit)
	}
}

// TestOnlineDecodeIntoAllocs bounds a steady-state DecodeInto at
// bigcopy's shape: with the scratch pooled and the output the caller's,
// a decode allocates nothing. And Decode(dst = nil) allocates its
// output only once the blocks are known to suffice: an attempt that
// falls short (a rank-deficient set, whose peel stalls into
// inactivation) allocates far less than the chunk.
func TestOnlineDecodeIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	c, chunk, sub := bigcopyDecode(t)
	dst := make([]byte, len(chunk))
	if err := c.DecodeInto(dst, sub); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if err := c.DecodeInto(dst, sub); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("steady-state DecodeInto: %.0f allocs/op, want 0", allocs)
	}

	short := sub[:c.DataBlocks()]
	if _, st, err := c.DecodeWithStats(short, len(chunk)); !errors.Is(err, ErrInsufficient) || st.Inactivated == 0 {
		t.Fatalf("%d blocks: err %v with %d inactivated, want ErrInsufficient after inactivation", len(short), err, st.Inactivated)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 5 {
		if _, err := c.Decode(short, len(chunk)); err == nil {
			t.Fatal("a rank-deficient set decoded")
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(chunk))/4 {
		t.Errorf("5 failed Decode(nil) attempts allocated %d bytes; the output (%d bytes) must wait for a decode that succeeds", got, len(chunk))
	}
}

// TestEliminateReplaysOnPivotRows pins the two-pass solve the in-place
// decoder relies on: eliminating only the rows a bits-only elimination
// pivoted on, rebuilt from their original bits and carrying their
// right-hand sides, takes the same pivots and ends with the same rows
// as one elimination of every row with its right-hand side. A pivot
// row left with a free column's bit (a rank-deficient system) is not
// a unit row, so the decoder does not read it off as solved.
func TestEliminateReplaysOnPivotRows(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 300; trial++ {
		nCols := 1 + rng.Intn(100)
		words := (nCols + 63) / 64
		nRows := rng.Intn(nCols + 10)
		density := 1 + rng.Intn(nCols)
		bits := make([][]uint64, nRows)
		rhs := make([][]byte, nRows)
		for i := range bits {
			bits[i] = make([]uint64, words)
			for range 1 + rng.Intn(density) {
				j := rng.Intn(nCols)
				bits[i][j/64] ^= 1 << (j % 64)
			}
			rhs[i] = randChunk(rng, 8)
		}
		ref := make([]gf2Row, nRows)
		sym := make([]gf2Row, nRows)
		for i := range ref {
			ref[i] = gf2Row{eq: i, bits: slices.Clone(bits[i]), rhs: slices.Clone(rhs[i])}
			sym[i] = gf2Row{eq: i, bits: slices.Clone(bits[i])}
		}
		refPivot := make([]int, nCols)
		eliminate(ref, refPivot)
		pivotOf := make([]int, nCols)
		lead := sym[:eliminate(sym, pivotOf)]
		for i := range lead {
			lead[i].bits = slices.Clone(bits[lead[i].eq])
			lead[i].rhs = slices.Clone(rhs[lead[i].eq])
		}
		eliminate(lead, pivotOf)
		if !slices.Equal(pivotOf, refPivot) {
			t.Fatalf("trial %d: pivots %v on the lead rows, %v on all rows", trial, pivotOf, refPivot)
		}
		for j, p := range pivotOf {
			if p >= 0 && (!slices.Equal(lead[p].bits, ref[p].bits) || !bytes.Equal(lead[p].rhs, ref[p].rhs)) {
				t.Fatalf("trial %d: column %d's pivot row differs between the passes", trial, j)
			}
		}
	}

	// x0 ^ x1 = r: column 0 pivots on a row that still holds x1.
	rows := []gf2Row{{bits: []uint64{0b11}}}
	pivotOf := make([]int, 2)
	if eliminate(rows, pivotOf) != 1 || pivotOf[0] != 0 || pivotOf[1] != -1 {
		t.Fatalf("pivots %v, want [0 -1]", pivotOf)
	}
	if isUnit(rows[0].bits, 0) {
		t.Error("a row over two free columns was read off as solved")
	}
}
