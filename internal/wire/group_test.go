package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
)

// groupParts builds n parts keyed by their decimal index, each holding
// size bytes of its own backing, so a frame written from them can be
// checked against the memory it came from.
func groupParts(n, size int) []Part {
	parts := make([]Part, n)
	for i := range parts {
		parts[i] = Part{Key: []byte(fmt.Sprint(i)), Data: bytes.Repeat([]byte{byte(i + 1)}, size)}
	}
	return parts
}

// TestGroupFrameGolden checks that a group leaves as head, one piece per
// block from the caller's own memory, tail — no block is copied into a
// joint buffer — and that the bytes are the single-buffer layout of
// codec.go, through a plain writer and through a socket.
func TestGroupFrameGolden(t *testing.T) {
	parts := groupParts(5, 100)
	req := &Request{Op: OpStore, Name: "file_3_", Parts: parts}
	var w pieceWriter
	if err := writeRequestV2(&w, 9, req); err != nil {
		t.Fatal(err)
	}
	if len(w.pieces) != len(parts)+2 {
		t.Fatalf("group of %d written as %d pieces, want %d", len(parts), len(w.pieces), len(parts)+2)
	}
	for i, p := range parts {
		if &w.pieces[i+1][0] != &p.Data[0] {
			t.Fatalf("block %d was copied on its way out", i)
		}
	}
	var joined []byte
	for _, piece := range w.pieces {
		joined = append(joined, piece...)
	}
	if !bytes.Equal(joined, refRequest(9, req)) {
		t.Fatal("group request differs from the single-buffer encoding")
	}

	resp := &Response{OK: true, Parts: []Part{parts[0], {Absent: true}, parts[2]}}
	var buf bytes.Buffer
	if err := writeResponseV2(&buf, 9, resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), refResponse(9, resp)) {
		t.Fatal("group response differs from the single-buffer encoding")
	}

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go writeRequestV2(a, 9, req) //nolint:errcheck // the read below fails if it does
	var got Request
	if err := readRequestV2(b, &got); err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	if got.Name != req.Name || len(got.Parts) != len(parts) || got.Data != nil {
		t.Fatalf("group request came back as %q with %d parts and %d payload bytes", got.Name, len(got.Parts), len(got.Data))
	}
	for i, p := range got.Parts {
		if !bytes.Equal(p.Key, parts[i].Key) || !bytes.Equal(p.Data, parts[i].Data) {
			t.Fatalf("part %d came back as %q/%d bytes", i, p.Key, len(p.Data))
		}
	}

}

// TestGroupRoundTrip moves a store group and a fetch group with one
// absent block through Pool and Serve: the fetch answers part for part
// in request order, marking the absent one.
func TestGroupRoundTrip(t *testing.T) {
	held := map[string][]byte{}
	addr, _ := startV2Server(t, func(req *Request) *Response {
		switch req.Op {
		case OpStore:
			for _, p := range req.Parts {
				held[req.Name+string(p.Key)] = bytes.Clone(p.Data)
			}
			return &Response{OK: true}
		case OpFetch:
			out := make([]Part, len(req.Parts))
			for i, p := range req.Parts {
				d, ok := held[req.Name+string(p.Key)]
				out[i] = Part{Data: d, Absent: !ok}
			}
			return &Response{OK: true, Parts: out}
		}
		return &Response{Err: "unexpected op"}
	})
	p := NewPool()
	defer p.Close()
	parts := groupParts(4, 1000)
	if _, err := p.CallCtx(context.Background(), addr, &Request{Op: OpStore, Name: "f_0_", Parts: parts[:3]}, 0); err != nil {
		t.Fatal(err)
	}
	keys := []Part{{Key: parts[2].Key}, {Key: parts[3].Key}, {Key: parts[0].Key}}
	resp, err := p.CallCtx(context.Background(), addr, &Request{Op: OpFetch, Name: "f_0_", Parts: keys}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Release()
	if len(resp.Parts) != 3 {
		t.Fatalf("fetch group answered with %d parts, want 3", len(resp.Parts))
	}
	if !bytes.Equal(resp.Parts[0].Data, parts[2].Data) || resp.Parts[0].Absent {
		t.Fatal("part 0 of the fetch group is not block 2")
	}
	if !resp.Parts[1].Absent || len(resp.Parts[1].Data) != 0 {
		t.Fatal("the never-stored block was not marked absent")
	}
	if !bytes.Equal(resp.Parts[2].Data, parts[0].Data) || resp.Parts[2].Absent {
		t.Fatal("part 2 of the fetch group is not block 0")
	}
}

// hostileGroupRequest lays out a store group request by hand: n table
// entries claiming lens[i] bytes each (the last length repeats), over
// a data blob of blob bytes.
func hostileGroupRequest(n int, lens []uint32, blob int) []byte {
	f := &refFrame{b: make([]byte, 4)}
	f.u8(kindRequest)
	f.u64(1)
	f.str(string(OpStore))
	f.str("f_0_")
	f.u32(0) // names
	f.u32(uint32(n))
	for i := 0; i < n && i < len(lens); i++ {
		f.str(fmt.Sprint(i))
		f.u64(0)
		f.u32(0)
		f.u32(lens[i])
	}
	f.blob(make([]byte, blob))
	f.node(NodeInfo{})
	return f.done()
}

// TestHostileGroupFrames feeds the decoder group frames a hostile peer
// could send. Each must fail to decode — not panic, not be half
// applied — and release its frame.
func TestHostileGroupFrames(t *testing.T) {
	for _, c := range []struct {
		name  string
		frame []byte
	}{
		{"lengths short of the payload", hostileGroupRequest(3, []uint32{10, 10, 10}, 31)},
		{"lengths past the payload", hostileGroupRequest(3, []uint32{10, 10, 10}, 29)},
		{"a length wrapping the sum", hostileGroupRequest(2, []uint32{0xffffffff, 1}, 0)},
		{"count above MaxListLen", hostileCount(MaxListLen + 1)},
		{"count past the frame", hostileCount(1000)},
	} {
		var req Request
		if err := readRequestV2(bytes.NewReader(c.frame), &req); !errors.Is(err, errFrameCorrupt) {
			t.Errorf("%s: decoded with %v, want a corrupt-frame error", c.name, err)
		}
		if req.frame != nil || len(req.Parts) != 0 || req.Data != nil {
			t.Errorf("%s: a refused frame left parts or a frame behind", c.name)
		}
	}
	if err := writeRequestV2(io.Discard, 1, &Request{Op: OpDelete, Parts: make([]Part, MaxListLen+1)}); err == nil ||
		!strings.Contains(err.Error(), "limit") {
		t.Errorf("writing a group above MaxListLen: %v, want a refusal", err)
	}
	if err := writeRequestV2(io.Discard, 1, &Request{Op: OpStore, Data: []byte{1}, Parts: groupParts(1, 1)}); err == nil {
		t.Error("a request with both a group and a payload was written")
	}
}

// hostileCount is a request whose parts count claims n entries over
// enough zero bytes for MaxListLen+1 of the smallest, so only the limit
// refuses the largest.
func hostileCount(n uint32) []byte {
	f := &refFrame{b: make([]byte, 4)}
	f.u8(kindRequest)
	f.u64(1)
	f.str(string(OpDelete))
	f.str("")
	f.u32(0)
	f.u32(n)
	if n > MaxListLen {
		f.b = append(f.b, make([]byte, (MaxListLen+1)*reqPartMin)...)
	}
	f.u32(0)
	return f.done()
}

// TestGroupRoundTripAllocs pins what a 24-block store group costs in
// allocations: the same as a one-block store. The group's table rides
// the frame the payload does, the server's parts list is its worker's,
// and no block is copied on either side.
func TestGroupRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ok := &Response{OK: true}
	addr, _ := startV2Server(t, func(*Request) *Response { return ok })
	p := NewPool()
	defer p.Close()
	perCall := func(req *Request) float64 {
		call := func() {
			resp, err := p.CallCtx(context.Background(), addr, req, 0)
			if err != nil {
				t.Fatal(err)
			}
			resp.Release()
		}
		call()
		return testing.AllocsPerRun(300, call)
	}
	one := perCall(&Request{Op: OpStore, Name: "block", Data: make([]byte, 4<<10)})
	group := perCall(&Request{Op: OpStore, Name: "file_0_", Parts: groupParts(24, 4<<10)})
	t.Logf("one block: %.0f allocations per round trip; 24-block group: %.0f", one, group)
	if group > one {
		t.Fatalf("a 24-block store group allocates %.0f per round trip, one block %.0f", group, one)
	}
}

// TestGroupFrameFitsPool checks that a group filling one segment is
// read into a frame the pool keeps: the table of a chunk's worth of
// blocks fits the header slack.
func TestGroupFrameFitsPool(t *testing.T) {
	const blocks = 121 // every block of an online-coded chunk
	parts := groupParts(blocks, DefaultSegment/blocks)
	var buf bytes.Buffer
	if err := writeRequestV2(&buf, 1, &Request{Op: OpStore, Name: "object.bin_12_", Parts: parts}); err != nil {
		t.Fatal(err)
	}
	if n := binary.BigEndian.Uint32(buf.Bytes()); int(n) > maxPooledFrame {
		t.Fatalf("a one-segment group frame is %d bytes, above the pooled %d", n, maxPooledFrame)
	}
}
