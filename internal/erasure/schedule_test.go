package erasure

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestUniformDefaultByteIdentical pins the wire format: with a nil (or
// explicit Uniform) schedule, Encode must keep producing exactly the
// bytes it produced before the Schedule knob existed, for a fixed seed.
// The golden hashes were computed from the pre-schedule implementation
// (PR 1) on identical inputs; a change here means stored blocks from
// older builds are no longer decodable.
func TestUniformDefaultByteIdentical(t *testing.T) {
	cases := []struct {
		n      int
		opts   OnlineOpts
		size   int
		golden string
	}{
		{64, OnlineOpts{}, 64*512 + 17, "a9124d4e4ac8fff4b5118af8a9c5109c9c0d2e8ee962a147197cf521c451a3cd"},
		{256, OnlineOpts{Eps: 0.05, Surplus: 0.04, Seed: 9}, 256 * 128, "aadb54e0f32ff4d1068b26aaedbfa8f1f9ca072e5172b0da3ac4ae9abd01dad0"},
		{4096, OnlineOpts{}, 1 << 20, "ecff7c571c6aa0740ebe9fd8ff012db512b0af0c13f804057edea1326bbecd04"},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(1234))
		chunk := make([]byte, tc.size)
		rng.Read(chunk)
		hash := func(opts OnlineOpts) string {
			blocks, err := MustOnline(tc.n, opts).Encode(chunk)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, b := range blocks {
				h.Write(b.Data)
			}
			return fmt.Sprintf("%x", h.Sum(nil))
		}
		if got := hash(tc.opts); got != tc.golden {
			t.Errorf("n=%d: default-schedule encoding drifted: %s, golden %s", tc.n, got, tc.golden)
		}
		explicit := tc.opts
		explicit.Schedule = Uniform()
		if got := hash(explicit); got != tc.golden {
			t.Errorf("n=%d: explicit Uniform() differs from nil default", tc.n)
		}
	}
}

// TestBandedByteIdentical pins the banded schedule's draw order: the
// hashes were computed from the parametric Banded(0.25, 4) it replaced.
// At n = 64 the bands saturate the composite message and degenerate to
// one window; the larger codes exercise the 4-band draw.
func TestBandedByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		n      int
		golden string
	}{
		{64, "56d8a26d69e4277829ebe53bdb6db271e07d2c646d5299b6caeb9f4a5fd2e1b7"},
		{1024, "ee5e137335f49a470d5d296bc709c00c8413e7024ff60027bef621378449e7b3"},
		{4096, "48ef06c65a93f3a4e46edc46ad5ea7463a58c5da2d954a1b8b2a04477183b533"},
	} {
		chunk := make([]byte, tc.n*256+17)
		rand.New(rand.NewSource(1234)).Read(chunk)
		blocks, err := MustOnline(tc.n, OnlineOpts{Schedule: Banded()}).Encode(chunk)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, b := range blocks {
			h.Write(b.Data)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.golden {
			t.Errorf("n=%d: banded encoding drifted: %s, golden %s", tc.n, got, tc.golden)
		}
	}
}

// TestScheduleRoundTrip decodes the full stored block set under every
// schedule across seeds, n, and ε.
func TestScheduleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, sched := range Schedules() {
		for _, n := range []int{16, 64, 257} {
			for _, eps := range []float64{0.1, 0.3} {
				for seed := int64(1); seed <= 3; seed++ {
					c := MustOnline(n, OnlineOpts{Eps: eps, Surplus: 0.3, Seed: seed, Schedule: sched})
					chunk := randChunk(rng, n*64+seedTail(seed))
					blocks, err := c.Encode(chunk)
					if err != nil {
						t.Fatal(err)
					}
					got, err := c.Decode(blocks, len(chunk))
					if err != nil {
						t.Fatalf("%s n=%d eps=%g seed=%d: %v", sched.Name(), n, eps, seed, err)
					}
					if !bytes.Equal(got, chunk) {
						t.Fatalf("%s n=%d eps=%g seed=%d: round-trip mismatch", sched.Name(), n, eps, seed)
					}
				}
			}
		}
	}
}

// seedTail varies chunk padding so every seed also exercises a
// different final-block fill.
func seedTail(seed int64) int { return int(seed * 7 % 13) }

// TestScheduleDuplicateAndStaleBlocks feeds each schedule's decoder
// duplicated indices, inconsistent duplicates, wrong-size (stale)
// blocks, and fresh out-of-range repair indices in one call.
func TestScheduleDuplicateAndStaleBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, sched := range Schedules() {
		c := MustOnline(64, OnlineOpts{Eps: 0.2, Surplus: 0.2, Schedule: sched})
		chunk := randChunk(rng, 64*128+11)
		blocks, err := c.Encode(chunk)
		if err != nil {
			t.Fatal(err)
		}
		mangled := append([]Block{}, blocks...)
		// Duplicates, one with corrupted payload: first copy must win.
		mangled = append(mangled, blocks[0], blocks[1])
		corrupt := append([]byte(nil), blocks[2].Data...)
		corrupt[0] ^= 0xff
		mangled = append(mangled, Block{Index: blocks[2].Index, Data: corrupt})
		// Stale blocks: wrong size for this chunk; must be skipped.
		mangled = append(mangled,
			Block{Index: 3, Data: make([]byte, 7)},
			Block{Index: 4, Data: nil})
		// Rateless repair block with an index beyond the stored set.
		fresh, err := c.FreshBlock(chunk, c.EncodedBlocks()+5)
		if err != nil {
			t.Fatal(err)
		}
		mangled = append(mangled, fresh)
		got, err := c.Decode(mangled, len(chunk))
		if err != nil {
			t.Fatalf("%s: decode with duplicates+stale: %v", sched.Name(), err)
		}
		if !bytes.Equal(got, chunk) {
			t.Fatalf("%s: duplicate/stale decode mismatch", sched.Name())
		}
	}
}

// TestScheduleSurplusThreshold decodes with exactly MinNeeded blocks
// (must succeed via inactivation at these sizes) and with far fewer
// than n blocks (must fail with a contextual ErrInsufficient) under
// every schedule.
func TestScheduleSurplusThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, sched := range Schedules() {
		c := MustOnline(128, OnlineOpts{Eps: 0.2, Surplus: 0.25, Schedule: sched})
		chunk := randChunk(rng, 128*64)
		blocks, err := c.Encode(chunk)
		if err != nil {
			t.Fatal(err)
		}
		// Exactly at the decodable threshold: (1+ε)n' blocks.
		at := blocks[:c.MinNeeded()]
		got, st, err := c.DecodeWithStats(at, len(chunk))
		if err != nil {
			t.Fatalf("%s: decode at MinNeeded=%d: %v (stats %+v)", sched.Name(), c.MinNeeded(), err, st)
		}
		if !bytes.Equal(got, chunk) {
			t.Fatalf("%s: threshold decode mismatch", sched.Name())
		}
		// Just below any decodable point: fewer equations than message
		// blocks minus what the outer code can contribute.
		below := blocks[:c.DataBlocks()-c.NumAux()-1]
		_, _, err = c.DecodeWithStats(below, len(chunk))
		if !errors.Is(err, ErrInsufficient) {
			t.Fatalf("%s: %d blocks decoded below the threshold (err=%v)", sched.Name(), len(below), err)
		}
	}
}

// TestScheduleNames checks the schedule set: exactly the uniform
// default and the banded schedule, under distinct names.
func TestScheduleNames(t *testing.T) {
	var names []string
	for _, s := range Schedules() {
		names = append(names, s.Name())
	}
	if fmt.Sprint(names) != "[uniform banded25x4]" {
		t.Errorf("Schedules() = %v, want [uniform banded25x4]", names)
	}
	if got := MustOnline(8, OnlineOpts{}).ScheduleName(); got != "uniform" {
		t.Errorf("nil OnlineOpts schedule = %q, want uniform", got)
	}
}

// TestBandedMembersStayInBands checks the banded structural contract:
// every member of check block i lies inside one of the block's 4
// bands, members are distinct, and the bands are disjoint (spacing ≥
// width). At n' = 1000 each band is 63 blocks wide, 250 apart.
func TestBandedMembersStayInBands(t *testing.T) {
	const nPrime = 1000
	const bw, spacing = 63, nPrime / bandCount
	sched := Banded()
	stride := interleaveStride(nPrime)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		d := 1 + rng.Intn(12)
		ms := sched.members(rand.New(rand.NewSource(int64(i))), i, d, nPrime)
		if len(ms) != d {
			t.Fatalf("block %d: %d members, want %d", i, len(ms), d)
		}
		start := (i * stride) % nPrime
		seen := map[int]bool{}
		for _, m := range ms {
			if seen[m] {
				t.Fatalf("block %d: duplicate member %d", i, m)
			}
			seen[m] = true
			offset := ((m - start) + nPrime) % nPrime
			if offset%spacing >= bw || offset/spacing >= bandCount {
				t.Fatalf("block %d: member %d (offset %d) outside every band (bw=%d spacing=%d)", i, m, offset, bw, spacing)
			}
		}
	}
}

// TestInterleaveStrideCoprime checks the window-start sequence visits
// every composite index before repeating.
func TestInterleaveStrideCoprime(t *testing.T) {
	for _, n := range []int{2, 3, 17, 64, 4183} {
		s := interleaveStride(n)
		if s < 1 || gcd(s, n) != 1 {
			t.Errorf("stride(%d) = %d not coprime", n, s)
		}
	}
	if interleaveStride(1) != 1 {
		t.Error("stride(1) != 1")
	}
}

// TestInactivationPathAllocs bounds allocations on the inactivation
// decode path. The configuration is chosen so BP stalls (verified via
// stats below): ε=0.01 at n=512 sits well under the waterfall. The
// bound is generous — the point is catching accidental per-column or
// per-equation allocation regressions, which show up as thousands.
func TestInactivationPathAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	c := MustOnline(512, OnlineOpts{Surplus: 0.04})
	chunk := randChunk(rng, 512*64)
	blocks, err := c.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := c.DecodeWithStats(blocks, len(chunk))
	if err != nil {
		t.Fatal(err)
	}
	if st.BPComplete {
		t.Skip("BP completed; inactivation path not exercised at this seed")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := c.DecodeWithStats(blocks, len(chunk)); err != nil {
			t.Fatal(err)
		}
	})
	// ~2 allocs per equation would already be 2000+; the decoder's
	// backing-array layout keeps it far below that.
	if allocs > 1500 {
		t.Errorf("inactivation decode: %.0f allocs/op, want <= 1500", allocs)
	}
}

// TestDecodeWithStatsReporting checks the fields the schedule
// experiments read: BPComplete ⇔ zero inactivations, peel+inactive
// cover the composite message on success, and Received counts distinct
// well-formed blocks only.
func TestDecodeWithStatsReporting(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	c := MustOnline(64, OnlineOpts{Eps: 0.2, Surplus: 0.2})
	chunk := randChunk(rng, 64*32)
	blocks, err := c.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	withDup := append(append([]Block{}, blocks...), blocks[0], Block{Index: 1, Data: make([]byte, 3)})
	_, st, err := c.DecodeWithStats(withDup, len(chunk))
	if err != nil {
		t.Fatal(err)
	}
	if st.Received != len(blocks) {
		t.Errorf("Received = %d, want %d distinct", st.Received, len(blocks))
	}
	if st.BPComplete != (st.Inactivated == 0) {
		t.Errorf("BPComplete=%v inconsistent with Inactivated=%d", st.BPComplete, st.Inactivated)
	}
	if st.Peeled+st.Inactivated < c.DataBlocks() {
		t.Errorf("resolved %d+%d columns < n=%d on a successful decode", st.Peeled, st.Inactivated, c.DataBlocks())
	}
}

// TestRankDeficientDecodeFails pins the decoder's behavior on a
// genuinely undecodable draw. At n=1 (n'=2) every degree-2 check block
// repeats the single outer-code equation, so a stored set whose checks
// are all degree 2 determines only b0^b1, never b0: the inactive
// system is rank-deficient. The decoder must say ErrInsufficient —
// never read a non-singleton pivot row off as a solved value and
// return fabricated bytes as success. That n=1 draw fails on a column
// no row pivots on; the fixed set first is one whose elimination
// leaves a pivot row carrying a free column's bit, found by search.
func TestRankDeficientDecodeFails(t *testing.T) {
	fixed := MustOnline(6, OnlineOpts{Eps: 0.4, Surplus: 0.5, Seed: 24547})
	chunk := []byte("rank-deficit")
	enc, err := fixed.Encode(chunk)
	if err != nil {
		t.Fatal(err)
	}
	var sub []Block
	for _, i := range []int{15, 3, 14, 12, 4, 18, 16, 7} {
		sub = append(sub, enc[i])
	}
	got, st, err := fixed.DecodeWithStats(sub, len(chunk))
	if err == nil && !bytes.Equal(got, chunk) {
		t.Fatal("fixed set: fabricated bytes returned as a successful decode")
	}
	if !errors.Is(err, ErrInsufficient) || st.ResidualRows == 0 {
		t.Fatalf("fixed set: err = %v after %d residual rows, want ErrInsufficient from the dense solve", err, st.ResidualRows)
	}

	for seed := int64(1); seed < 500; seed++ {
		c := MustOnline(1, OnlineOpts{Eps: 0.25, Surplus: 0.35, Seed: seed})
		allDeg2 := true
		for _, comp := range c.checkComps {
			if len(comp) != 2 {
				allDeg2 = false
				break
			}
		}
		if !allDeg2 {
			continue
		}
		chunk := []byte{0xAB, 0xCD, 0xEF}
		blocks, err := c.Encode(chunk)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(blocks, len(chunk))
		if err == nil && !bytes.Equal(got, chunk) {
			t.Fatalf("seed %d: fabricated bytes returned as a successful decode", seed)
		}
		if !errors.Is(err, ErrInsufficient) {
			t.Fatalf("seed %d: err = %v, want ErrInsufficient", seed, err)
		}
		return
	}
	t.Skip("no all-degree-2 draw within the seed range")
}
