package erasure

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// codesUnderTest is every code at a live configuration (the shapes
// core.CodeFor builds) plus the paper's Table 2 online code.
func codesUnderTest() []Code {
	return []Code{
		NewNull(),
		MustXOR(2),
		MustRS(8, 2),
		MustOnline(64, OnlineOpts{Eps: 0.2, Surplus: 0.2, Schedule: Banded()}),
		MustOnline(4096, OnlineOpts{}),
	}
}

// within reports whether b lies inside backing's array.
func within(b, backing []byte) bool {
	if len(b) == 0 {
		return true
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(backing)))
	p := uintptr(unsafe.Pointer(&b[0]))
	return p >= lo && p+uintptr(len(b)) <= lo+uintptr(cap(backing))
}

// TestEncodeIntoMatchesEncode pins EncodeInto to Encode on every code:
// into a backing left dirty by an earlier encode, too small, or nil,
// the blocks are byte-identical, every block that is not a view of the
// chunk lies inside the backing returned, and a backing with room is
// used as it is rather than replaced. BackingLen is the room it uses.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, code := range codesUnderTest() {
		for _, size := range []int{1 << 16, 1<<16 + 3, 1000, 1} {
			name := fmt.Sprintf("%s/%d/%d", code.Name(), code.DataBlocks(), size)
			chunk := randChunk(rng, size)
			want, err := code.Encode(chunk)
			if err != nil {
				t.Fatal(err)
			}
			_, need, err := code.EncodeInto(nil, chunk)
			if err != nil {
				t.Fatal(err)
			}
			if n := code.BackingLen(size); n != len(need) {
				t.Fatalf("%s: BackingLen says %d bytes, EncodeInto uses %d", name, n, len(need))
			}
			dirty := bytes.Repeat([]byte{0xa5}, len(need)+17)
			for _, tc := range []struct {
				arm     string
				backing []byte
				reused  bool
			}{
				{"dirty", dirty, true},
				{"too small", make([]byte, len(need)/2), len(need) == 0},
				{"nil", nil, false},
			} {
				got, backing, err := code.EncodeInto(tc.backing, chunk)
				if err != nil {
					t.Fatalf("%s %s: %v", name, tc.arm, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s %s: %d blocks, Encode gives %d", name, tc.arm, len(got), len(want))
				}
				for i := range got {
					if got[i].Index != want[i].Index || !bytes.Equal(got[i].Data, want[i].Data) {
						t.Fatalf("%s %s: block %d differs from Encode's", name, tc.arm, i)
					}
					if !within(got[i].Data, chunk) && !within(got[i].Data, backing) {
						t.Fatalf("%s %s: block %d is neither a view of the chunk nor inside the backing", name, tc.arm, i)
					}
				}
				if tc.reused && len(backing) > 0 && unsafe.SliceData(backing) != unsafe.SliceData(tc.backing) {
					t.Errorf("%s %s: a backing with room was replaced", name, tc.arm)
				}
			}
		}
	}
}

// TestEncodeIntoGolden pins the recycled path to the same golden hash
// as Encode (TestTiledEncodeByteIdentical): a dirty backing reused
// across encodes of other chunks must not leak into the blocks.
func TestEncodeIntoGolden(t *testing.T) {
	const golden = "ecff7c571c6aa0740ebe9fd8ff012db512b0af0c13f804057edea1326bbecd04"
	code := MustOnline(4096, OnlineOpts{})
	other := make([]byte, 1<<20)
	rand.New(rand.NewSource(99)).Read(other)
	_, backing, err := code.EncodeInto(nil, other)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 1<<20)
	rand.New(rand.NewSource(1234)).Read(chunk)
	blocks, _, err := code.EncodeInto(backing, chunk)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, b := range blocks {
		h.Write(b.Data)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != golden {
		t.Fatalf("EncodeInto over a reused backing drifted: %s, golden %s", got, golden)
	}
}

// TestDecodeIntoMatchesDecode pins DecodeInto to Decode on every code,
// the online rows included: into a dst left dirty by other bytes, from
// the intact set and with the first blocks lost, the chunk is
// byte-identical to Decode's; and fewer than DataBlocks distinct blocks
// fail both with ErrInsufficient.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, code := range codesUnderTest() {
		for _, size := range []int{1 << 16, 1<<16 + 3, 1000} {
			name := fmt.Sprintf("%s/%d/%d", code.Name(), code.DataBlocks(), size)
			chunk := randChunk(rng, size)
			enc, err := code.Encode(chunk)
			if err != nil {
				t.Fatal(err)
			}
			subsets := map[string][]Block{"intact": enc}
			if lost := code.EncodedBlocks() - code.MinNeeded(); lost > 0 {
				subsets["first blocks lost"] = enc[lost:]
			}
			for arm, subset := range subsets {
				want, err := code.Decode(subset, size)
				if err != nil {
					t.Fatalf("%s %s: Decode: %v", name, arm, err)
				}
				dst := bytes.Repeat([]byte{0xa5}, size)
				if err := code.DecodeInto(dst, subset); err != nil {
					t.Fatalf("%s %s: DecodeInto: %v", name, arm, err)
				}
				if !bytes.Equal(dst, want) || !bytes.Equal(dst, chunk) {
					t.Errorf("%s %s: DecodeInto into a dirty dst differs from Decode", name, arm)
				}
			}
			few := enc[:code.DataBlocks()-1]
			if _, err := code.Decode(few, size); !errors.Is(err, ErrInsufficient) {
				t.Errorf("%s: Decode from %d blocks: %v, want ErrInsufficient", name, len(few), err)
			}
			if err := code.DecodeInto(make([]byte, size), few); !errors.Is(err, ErrInsufficient) {
				t.Errorf("%s: DecodeInto from %d blocks: %v, want ErrInsufficient", name, len(few), err)
			}
		}
	}
}

// scribbleAll overwrites every input block, so an output still sharing
// memory with one shows up as changed.
func scribbleAll(blocks []Block) {
	for _, b := range blocks {
		for i := range b.Data {
			b.Data[i] = ^b.Data[i]
		}
	}
}

// cloneBlocks deep-copies blocks, so a test can scribble the copy.
func cloneBlocks(blocks []Block) []Block {
	out := make([]Block, len(blocks))
	for i, b := range blocks {
		out[i] = Block{Index: b.Index, Data: append([]byte(nil), b.Data...)}
	}
	return out
}

// TestDecodeOutputOwnsItsBytes checks that Decode, DecodeInto and
// RebuildRange output shares no memory with any block handed in, on
// every code, from the intact set and from degraded subsets: the live
// client gives the receive frames fetched blocks sit in back to the
// pool as soon as the decode returns.
func TestDecodeOutputOwnsItsBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, code := range codesUnderTest() {
		for _, size := range []int{1 << 16, 1<<16 + 5} {
			chunk := randChunk(rng, size)
			enc, err := code.Encode(chunk)
			if err != nil {
				t.Fatal(err)
			}
			subsets := map[string][]Block{"intact": enc}
			if lost := code.EncodedBlocks() - code.MinNeeded(); lost > 0 {
				subsets["first blocks lost"] = enc[lost:]
			}
			for arm, subset := range subsets {
				name := fmt.Sprintf("%s/%d/%s", code.Name(), size, arm)
				in := cloneBlocks(subset)
				out, err := code.Decode(in, size)
				if err != nil {
					t.Fatalf("%s: Decode: %v", name, err)
				}
				scribbleAll(in)
				if !bytes.Equal(out, chunk) {
					t.Errorf("%s: Decode output shares memory with an input block", name)
				}
				in = cloneBlocks(subset)
				into := make([]byte, size)
				if err := code.DecodeInto(into, in); err != nil {
					t.Fatalf("%s: DecodeInto: %v", name, err)
				}
				scribbleAll(in)
				if !bytes.Equal(into, chunk) {
					t.Errorf("%s: DecodeInto output changed with its inputs", name)
				}
				sys, ok := code.(Systematic)
				if !ok || code.EncodedBlocks() == 1 {
					continue
				}
				bs := len(enc[0].Data)
				lo, hi := bs/4, bs/2
				var ranges []Block
				for _, b := range subset {
					if b.Index != 0 {
						ranges = append(ranges, Block{Index: b.Index, Data: append([]byte(nil), b.Data[lo:hi]...)})
					}
				}
				dst := make([]byte, hi-lo)
				if err := sys.RebuildRange(dst, 0, ranges); err != nil {
					t.Fatalf("%s: RebuildRange: %v", name, err)
				}
				scribbleAll(ranges)
				if !bytes.Equal(dst, enc[0].Data[lo:hi]) {
					t.Errorf("%s: RebuildRange output changed with its inputs", name)
				}
			}
		}
	}
}

// sumBlocks checksums every block's bytes, in order.
func sumBlocks(blocks []Block) [][sha256.Size]byte {
	out := make([][sha256.Size]byte, len(blocks))
	for i, b := range blocks {
		out[i] = sha256.Sum256(b.Data)
	}
	return out
}

// shuffledSubset returns k of blocks, drawn by rng.
func shuffledSubset(rng *rand.Rand, blocks []Block, k int) []Block {
	out := append([]Block(nil), blocks...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:k]
}

// onlineSubset draws k-block subsets of an online code's blocks until
// one decodes (or, with wantErr, fails to) after inactivating at least
// one column, so the arm it feeds runs the dense solve.
func onlineSubset(t *testing.T, c *Online, enc []Block, size, k int, wantErr bool) []Block {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(size + k)))
	for range 200 {
		sub := shuffledSubset(rng, enc, k)
		_, st, err := c.DecodeWithStats(sub, size)
		if st.Inactivated > 0 && (err != nil) == wantErr {
			return sub
		}
	}
	t.Fatalf("online n=%d: no %d-block subset inactivates with wantErr=%v in 200 draws", c.DataBlocks(), k, wantErr)
	return nil
}

// TestDecodeLeavesInputsUntouched checks the Code contract the live
// client relies on: Decode, DecodeInto and RebuildRange never write a
// block's Data, which there is a view of a pooled receive frame. On
// every code each input is checksummed before and after a decode into
// a dst poisoned with 0xa5: intact and degraded sets, an online set
// whose peel inactivates columns, a chunk length that is not a multiple
// of n, and a set too small to decode — for the online code a
// rank-deficient one that reaches the dense solve — which must fail
// with ErrInsufficient. A decode that succeeds must fill dst exactly.
func TestDecodeLeavesInputsUntouched(t *testing.T) {
	const size = 1 << 16
	for _, code := range codesUnderTest() {
		type arm struct {
			name    string
			chunk   []byte
			blocks  []Block
			wantErr bool
		}
		var arms []arm
		for _, n := range []int{size, size + 3} {
			chunk := randChunk(rand.New(rand.NewSource(int64(n))), n)
			enc, err := code.Encode(chunk)
			if err != nil {
				t.Fatal(err)
			}
			enc = cloneBlocks(enc) // no input aliases the chunk compared against
			ragged := ""
			if n%code.DataBlocks() != 0 {
				ragged = " ragged"
			}
			arms = append(arms, arm{"intact" + ragged, chunk, enc, false})
			if lost := code.EncodedBlocks() - code.MinNeeded(); lost > 0 {
				arms = append(arms, arm{"degraded" + ragged, chunk, enc[lost:], false})
			}
			if on, ok := code.(*Online); ok {
				arms = append(arms,
					arm{"inactivated" + ragged, chunk, onlineSubset(t, on, enc, n, on.MinNeeded(), false), false},
					arm{"rank-deficient" + ragged, chunk, onlineSubset(t, on, enc, n, on.DataBlocks(), true), true})
			} else {
				arms = append(arms, arm{"too few" + ragged, chunk, enc[:code.DataBlocks()-1], true})
			}
		}
		for _, a := range arms {
			name := fmt.Sprintf("%s/%d %s", code.Name(), code.DataBlocks(), a.name)
			before := sumBlocks(a.blocks)
			// Checked after each call: a second write can undo a first.
			untouched := func(call string) {
				for i, sum := range sumBlocks(a.blocks) {
					if sum != before[i] {
						t.Errorf("%s: %s wrote block %d (index %d)", name, call, i, a.blocks[i].Index)
					}
				}
			}
			dst := bytes.Repeat([]byte{0xa5}, len(a.chunk))
			err := code.DecodeInto(dst, a.blocks)
			switch {
			case a.wantErr && !errors.Is(err, ErrInsufficient):
				t.Errorf("%s: DecodeInto: %v, want ErrInsufficient", name, err)
			case !a.wantErr && err != nil:
				t.Errorf("%s: DecodeInto: %v", name, err)
			case !a.wantErr && !bytes.Equal(dst, a.chunk):
				t.Errorf("%s: DecodeInto into a poisoned dst returned wrong bytes", name)
			}
			untouched("DecodeInto")
			got, err := code.Decode(a.blocks, len(a.chunk))
			if (err != nil) != a.wantErr || (err == nil && !bytes.Equal(got, a.chunk)) {
				t.Errorf("%s: Decode: %v or wrong bytes, want wantErr=%v", name, err, a.wantErr)
			}
			untouched("Decode")
			if sys, ok := code.(Systematic); ok && !a.wantErr && code.EncodedBlocks() > 1 {
				bs := len(a.blocks[0].Data)
				dst := bytes.Repeat([]byte{0xa5}, bs/2)
				var ranges []Block
				for _, b := range a.blocks {
					if b.Index != 0 {
						ranges = append(ranges, Block{Index: b.Index, Data: b.Data[bs/4 : bs/4+bs/2]})
					}
				}
				if err := sys.RebuildRange(dst, 0, ranges); err != nil {
					t.Errorf("%s: RebuildRange: %v", name, err)
				} else if !bytes.Equal(dst, a.chunk[bs/4:bs/4+bs/2]) {
					t.Errorf("%s: RebuildRange returned wrong bytes", name)
				}
				untouched("RebuildRange")
			}
		}
	}
}
