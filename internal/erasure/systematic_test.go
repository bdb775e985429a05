package erasure

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// The online code mixes bytes across the whole chunk: it must stay off
// the ranged read path.
func TestOnlineIsNotSystematic(t *testing.T) {
	var c Code = MustOnline(64, OnlineOpts{Eps: 0.2, Surplus: 0.2})
	if _, ok := c.(Systematic); ok {
		t.Fatal("online code claims to be systematic")
	}
}

// subsets calls fn with every size-k subset of idx.
func subsets(idx []int, k int, fn func([]int)) {
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == k {
			fn(append([]int(nil), cur...))
			return
		}
		for i := start; i < len(idx); i++ {
			rec(i+1, append(cur, idx[i]))
		}
	}
	rec(0, nil)
}

// TestRebuildRangeMatchesBlocks is the contract of Systematic: for
// every data block and random byte ranges of it, every MinNeeded-sized
// subset of the other blocks' ranges rebuilds exactly the bytes Encode
// put there, and one range fewer is ErrInsufficient.
func TestRebuildRangeMatchesBlocks(t *testing.T) {
	codes := []Code{MustXOR(1), MustXOR(2), MustXOR(3), MustXOR(5), MustRS(2, 1), MustRS(4, 2), MustRS(8, 2), MustRS(3, 3)}
	rng := rand.New(rand.NewSource(20))
	for _, code := range codes {
		sys := code.(Systematic)
		n, m, need := code.DataBlocks(), code.EncodedBlocks(), code.MinNeeded()
		for _, chunkLen := range []int{1, n - 1, n, 1000, 4096*n + 7} {
			if chunkLen < 1 {
				continue
			}
			chunk := make([]byte, chunkLen)
			rng.Read(chunk)
			blocks, err := code.Encode(chunk)
			if err != nil {
				t.Fatal(err)
			}
			bs := len(blocks[0].Data)
			for index := 0; index < n; index++ {
				a := rng.Intn(bs)
				b := a + 1 + rng.Intn(bs-a)
				want := blocks[index].Data[a:b]
				var others []int
				for e := 0; e < m; e++ {
					if e != index {
						others = append(others, e)
					}
				}
				subsets(others, need, func(pick []int) {
					ranges := []Block{{Index: index, Data: want}} // must be ignored
					for _, e := range pick {
						ranges = append(ranges, Block{Index: e, Data: blocks[e].Data[a:b]})
					}
					got := make([]byte, b-a)
					if err := sys.RebuildRange(got, index, ranges); err != nil {
						t.Fatalf("%s(%d,%d) len %d block %d from %v: %v", code.Name(), n, m, chunkLen, index, pick, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s(%d,%d) len %d block %d [%d,%d) from %v: wrong bytes", code.Name(), n, m, chunkLen, index, a, b, pick)
					}
					if err := sys.RebuildRange(got, index, ranges[:len(ranges)-1]); !errors.Is(err, ErrInsufficient) {
						t.Fatalf("%s: one range short: err = %v, want ErrInsufficient", code.Name(), err)
					}
				})
			}
		}
	}
}

// TestRebuildRangeIgnoresUnusable pins the filter: ranges of another
// length, out-of-range indices and duplicates do not count towards
// MinNeeded, and a parity or out-of-range target is refused.
func TestRebuildRangeIgnoresUnusable(t *testing.T) {
	chunk := make([]byte, 300)
	rand.New(rand.NewSource(21)).Read(chunk)
	for _, code := range []Code{MustXOR(2), MustRS(2, 2)} {
		sys := code.(Systematic)
		blocks, _ := code.Encode(chunk)
		got := make([]byte, 10)
		r := func(e, n int) Block { return Block{Index: e, Data: blocks[e].Data[5 : 5+n]} }
		for name, ranges := range map[string][]Block{
			"short":     {r(1, 9), r(2, 10)},
			"oversized": {r(1, 11), r(2, 10)},
			"duplicate": {r(2, 10), r(2, 10)},
			"bad index": {{Index: -1, Data: make([]byte, 10)}, {Index: 99, Data: make([]byte, 10)}},
		} {
			if err := sys.RebuildRange(got, 0, ranges); !errors.Is(err, ErrInsufficient) {
				t.Errorf("%s %s: err = %v, want ErrInsufficient", code.Name(), name, err)
			}
		}
		for _, index := range []int{-1, code.DataBlocks(), code.EncodedBlocks()} {
			if err := sys.RebuildRange(got, index, []Block{r(0, 10), r(1, 10), r(2, 10)}); !errors.Is(err, ErrInsufficient) {
				t.Errorf("%s target %d: err = %v, want ErrInsufficient", code.Name(), index, err)
			}
		}
	}
	if err := NewNull().RebuildRange(make([]byte, 1), 0, nil); !errors.Is(err, ErrInsufficient) {
		t.Errorf("null: err = %v, want ErrInsufficient", err)
	}
}
