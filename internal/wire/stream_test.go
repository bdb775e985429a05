package wire

import (
	"testing"
)

// TestStoreStreamRoundTrip round-trips the control fields of one
// windowed upload segment, OpStoreWindow.
func TestStoreStreamRoundTrip(t *testing.T) {
	seg := WindowSegment{Stream: 0xdeadbeefcafe, Seq: 3, Total: 9, Size: 33<<20 + 17, Seg: 4 << 20}
	req := EncodeStoreWindow("f_0_2", seg, []byte{1, 2, 3})
	if req.Op != OpStoreWindow || req.Name != "f_0_2" {
		t.Fatalf("encoded request %+v", req)
	}
	got, err := ParseStoreWindow(req)
	if err != nil {
		t.Fatal(err)
	}
	if got != seg {
		t.Fatalf("round trip %+v, want %+v", got, seg)
	}
}

func TestStoreStreamRejectsMalformed(t *testing.T) {
	bad := []*Request{
		{Op: OpStoreWindow}, // no control fields
		{Op: OpStoreWindow, Names: []string{"1", "0", "1", "10"}},                  // short
		{Op: OpStoreWindow, Names: []string{"x", "0", "1", "10", "10"}},            // non-numeric
		{Op: OpStoreWindow, Names: []string{"1", "-1", "1", "10", "10"}},           // negative seq
		{Op: OpStoreWindow, Names: []string{"1", "2", "2", "10", "5"}},             // seq >= total
		{Op: OpStoreWindow, Names: []string{"1", "0", "1", "0", "4"}},              // zero size
		{Op: OpStoreWindow, Names: []string{"1", "0", "1", "99999999999999", "4"}}, // over MaxBlockSize
		{Op: OpStoreWindow, Names: []string{"1", "0", "1", "10", "0"}},             // zero segment size
		{Op: OpStoreWindow, Names: []string{"1", "0", "2", "10", "4"}},             // total disagrees with size/segSize
	}
	for i, req := range bad {
		if _, err := ParseStoreWindow(req); err == nil {
			t.Errorf("case %d: malformed segment accepted", i)
		}
	}
}

func TestFetchStreamRoundTrip(t *testing.T) {
	req := EncodeFetchStream("blk", 77<<20, 4<<20)
	off, maxLen, err := ParseFetchStream(req)
	if err != nil {
		t.Fatal(err)
	}
	if off != 77<<20 || maxLen != 4<<20 {
		t.Fatalf("round trip (%d, %d)", off, maxLen)
	}
	for i, r := range []*Request{
		{Op: OpFetchStream},
		{Op: OpFetchStream, Names: []string{"-1", "10"}},
		{Op: OpFetchStream, Names: []string{"0", "0"}},
		{Op: OpFetchStream, Names: []string{"a", "b"}},
	} {
		if _, _, err := ParseFetchStream(r); err == nil {
			t.Errorf("case %d: malformed range accepted", i)
		}
	}
}
