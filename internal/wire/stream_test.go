package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"peerstripe/internal/ids"
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

// TestFetchStreamRoundTrip checks that a fetch of a byte range of a
// block — an OpFetch part with an offset and a length — encodes byte
// for byte as the group layout says, decodes to the same ranges, and
// that a range length the frame cannot carry is refused on write.
func TestFetchStreamRoundTrip(t *testing.T) {
	ranged := &Request{Op: OpFetch, Name: "file_3_", Parts: []Part{
		{Key: []byte("0"), Off: 1 << 40, Len: 0xffffffff}, {Key: []byte("7")}, {Key: []byte("12"), Off: 4096, Len: 100},
	}}
	var rb bytes.Buffer
	if err := writeRequestV2(&rb, 9, ranged); err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0, 0, 0, 0, // body length, set below
		kindRequest, 0, 0, 0, 0, 0, 0, 0, 9, // kind, ID
		0, 5, 'f', 'e', 't', 'c', 'h', // op
		0, 7, 'f', 'i', 'l', 'e', '_', '3', '_', // name
		0, 0, 0, 0, // names
		0, 0, 0, 3, // parts: key, offset, range length, payload length
		0, 1, '0', 0, 0, 1, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0,
		0, 1, '7', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 2, '1', '2', 0, 0, 0, 0, 0, 0, 0x10, 0, 0, 0, 0, 100, 0, 0, 0, 0,
		0, 0, 0, 0, // payload
	}
	want = append(want, make([]byte, ids.Bytes)...) // node ID
	want = append(want, 0, 0)                       // node address
	binary.BigEndian.PutUint32(want, uint32(len(want)-4))
	if !bytes.Equal(rb.Bytes(), want) {
		t.Fatalf("ranged fetch group encodes as\n%v, want\n%v", rb.Bytes(), want)
	}
	var back Request
	if err := readRequestV2(&rb, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Parts) != len(ranged.Parts) {
		t.Fatalf("ranged group came back with %d parts, want %d", len(back.Parts), len(ranged.Parts))
	}
	for i, p := range back.Parts {
		if w := ranged.Parts[i]; !bytes.Equal(p.Key, w.Key) || p.Off != w.Off || p.Len != w.Len || p.Data != nil {
			t.Fatalf("ranged part %d came back as %+v, want %+v", i, p, w)
		}
	}
	back.Release()
	for _, n := range []int64{-1, 1 << 32} {
		if err := writeRequestV2(io.Discard, 1, &Request{Op: OpFetch, Parts: []Part{{Len: n}}}); err == nil {
			t.Errorf("a range length of %d was written", n)
		}
	}
}
