package erasure

import (
	"bytes"
	"crypto/sha256"
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
		MustOnline(64, OnlineOpts{Eps: 0.2, Surplus: 0.2, Schedule: Banded(0.25, 4)}),
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
// used as it is rather than replaced.
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
			ei, ok := code.(EncoderInto)
			if !ok {
				t.Fatalf("%s does not implement EncoderInto", name)
			}
			_, need, err := ei.EncodeInto(nil, chunk)
			if err != nil {
				t.Fatal(err)
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
				got, backing, err := ei.EncodeInto(tc.backing, chunk)
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

// TestEncodeWithFallsBack checks the helper on a code without
// EncodeInto: Encode's blocks and no backing.
func TestEncodeWithFallsBack(t *testing.T) {
	chunk := []byte("abcdefgh")
	blocks, backing, err := EncodeWith(encodeOnly{MustXOR(2)}, []byte("unused"), chunk)
	if err != nil || backing != nil || len(blocks) != 3 || !bytes.Equal(blocks[0].Data, []byte("abcd")) {
		t.Fatalf("EncodeWith on an Encode-only code: %v blocks, backing %q, err %v", len(blocks), backing, err)
	}
}

// encodeOnly hides every method of a code but Code's.
type encodeOnly struct{ Code }

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
				if di, ok := code.(DecoderInto); ok {
					in := cloneBlocks(subset)
					dst := make([]byte, size)
					if err := di.DecodeInto(dst, in); err != nil {
						t.Fatalf("%s: DecodeInto: %v", name, err)
					}
					scribbleAll(in)
					if !bytes.Equal(dst, chunk) {
						t.Errorf("%s: DecodeInto output changed with its inputs", name)
					}
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
