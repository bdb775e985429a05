package core

import (
	"reflect"
	"testing"
	"testing/quick"
)

func sampleCAT() *CAT {
	// Mirrors Figure 3: six chunks, chunk 5 empty, ~100 MB total.
	return &CAT{File: "fig3", Rows: []CATRow{
		{Start: 0, End: 5242880},
		{Start: 5242880, End: 26083328},
		{Start: 26083328, End: 52297728},
		{Start: 52297728, End: 86114304},
		{Start: 86114304, End: 86114304},
		{Start: 86114304, End: 104856576},
	}}
}

func TestCATMarshalRoundTrip(t *testing.T) {
	c := sampleCAT()
	data := c.Marshal()
	got, err := UnmarshalCAT("fig3", data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, c.Rows) {
		t.Fatalf("round trip mismatch:\n%v\n%v", got.Rows, c.Rows)
	}
}

// TestCATContentSums pins the content-sum extension: rows carrying a
// Sum round-trip through the three-field form, sum-less rows keep the
// exact legacy two-field form (so pre-sum tables and their hashes are
// untouched), and the CAT hash distinguishes same-layout tables with
// different content — the property the chunk cache and ETags version
// by.
func TestCATContentSums(t *testing.T) {
	c := &CAT{File: "sums", Rows: []CATRow{
		{Start: 0, End: 10, Sum: ChunkSum([]byte("0123456789"))},
		{Start: 10, End: 10}, // zero-sized retry row: no sum
		{Start: 10, End: 30, Sum: ChunkSum(make([]byte, 20))},
	}}
	rt, err := UnmarshalCAT("sums", c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rt.Rows, c.Rows) {
		t.Fatalf("sum round trip mismatch:\n%v\n%v", rt.Rows, c.Rows)
	}

	legacy := &CAT{File: "legacy", Rows: []CATRow{{Start: 0, End: 10}}}
	if got := string(legacy.Marshal()); got != "(1) 0,10\n" {
		t.Fatalf("sum-less marshal changed: %q", got)
	}

	other := &CAT{File: "sums", Rows: []CATRow{
		{Start: 0, End: 10, Sum: ChunkSum([]byte("9876543210"))},
		{Start: 10, End: 10},
		{Start: 10, End: 30, Sum: ChunkSum(make([]byte, 20))},
	}}
	if c.Hash() == other.Hash() {
		t.Fatal("same-layout tables with different content hash equal")
	}
	if c.Hash() != rt.Hash() {
		t.Fatal("hash not stable across marshal round trip")
	}
}

func TestCATFileSize(t *testing.T) {
	c := sampleCAT()
	if c.FileSize() != 104856576 {
		t.Fatalf("FileSize = %d", c.FileSize())
	}
	empty := &CAT{File: "e"}
	if empty.FileSize() != 0 {
		t.Fatal("empty CAT size nonzero")
	}
}

func TestCATChunksFor(t *testing.T) {
	c := sampleCAT()
	cases := []struct {
		off, length int64
		want        []int
	}{
		{0, 1, []int{0}},
		{0, 5242880, []int{0}},
		{5242879, 2, []int{0, 1}},
		{86114304, 100, []int{5}}, // skips the empty chunk 4
		{0, 104856576, []int{0, 1, 2, 3, 5}},
		{104856576, 10, nil},
		{50, 0, nil},
	}
	for _, tc := range cases {
		got := c.ChunksFor(tc.off, tc.length)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ChunksFor(%d,%d) = %v, want %v", tc.off, tc.length, got, tc.want)
		}
	}
}

func TestCATValidate(t *testing.T) {
	if err := sampleCAT().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &CAT{File: "gap", Rows: []CATRow{{Start: 0, End: 10}, {Start: 11, End: 20}}}
	if bad.Validate() == nil {
		t.Error("gap accepted")
	}
	neg := &CAT{File: "neg", Rows: []CATRow{{Start: 0, End: 10}, {Start: 10, End: 5}}}
	if neg.Validate() == nil {
		t.Error("negative extent accepted")
	}
}

func TestUnmarshalCATErrors(t *testing.T) {
	if _, err := UnmarshalCAT("x", []byte("garbage line")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := UnmarshalCAT("x", []byte("(2) 0,10")); err == nil {
		t.Error("out-of-order index accepted")
	}
	if _, err := UnmarshalCAT("x", []byte("(1) 5,10")); err == nil {
		t.Error("row not starting at 0 accepted")
	}
	// Empty input is a valid zero-chunk table.
	c, err := UnmarshalCAT("x", nil)
	if err != nil || c.NumChunks() != 0 {
		t.Error("empty CAT rejected")
	}
}

// Property: a contiguous tiling built from arbitrary positive sizes
// always validates, round-trips, and covers every offset exactly once.
func TestCATTilingProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		c := &CAT{File: "p"}
		pos := int64(0)
		for _, s := range sizes {
			c.Rows = append(c.Rows, CATRow{Start: pos, End: pos + int64(s)})
			pos += int64(s)
		}
		if c.Validate() != nil {
			return false
		}
		rt, err := UnmarshalCAT("p", c.Marshal())
		if err != nil || !reflect.DeepEqual(rt.Rows, c.Rows) {
			return false
		}
		// Any in-range offset lands in exactly one non-empty chunk.
		if pos > 0 {
			mid := pos / 2
			chunks := c.ChunksFor(mid, 1)
			if len(chunks) != 1 {
				return false
			}
			r := c.Rows[chunks[0]]
			if mid < r.Start || mid >= r.End {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCATSizeBytes(t *testing.T) {
	c := sampleCAT()
	if c.SizeBytes() != int64(len(c.Marshal())) {
		t.Fatal("SizeBytes disagrees with Marshal")
	}
}
