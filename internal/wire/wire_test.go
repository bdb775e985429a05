package wire

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"peerstripe/internal/ids"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := Request{
		Op:   OpStore,
		Name: "file_3_1",
		Data: []byte{0, 1, 2, 255},
		Node: NodeInfo{ID: ids.FromName("n"), Addr: "127.0.0.1:9"},
	}
	if err := writeRequestV2(&buf, 7, &req); err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := readRequestV2(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != 7 || got.Op != req.Op || got.Name != req.Name || !bytes.Equal(got.Data, req.Data) ||
		got.Node.ID != req.Node.ID || got.Node.Addr != req.Node.Addr {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	got.Release()
}

func TestFrameMultipleSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		resp := Response{OK: true, Capacity: int64(i)}
		if err := writeResponseV2(&buf, uint64(i), &resp); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		var got Response
		if err := readResponseV2(&buf, &got); err != nil {
			t.Fatal(err)
		}
		if got.ID != uint64(i) || got.Capacity != int64(i) {
			t.Fatalf("frame %d out of order: ID %d, capacity %d", i, got.ID, got.Capacity)
		}
	}
	var extra Response
	if err := readResponseV2(&buf, &extra); err != io.EOF {
		t.Fatalf("expected EOF after last frame, got %v", err)
	}
}

func TestReadFrameTruncatedHeader(t *testing.T) {
	var req Request
	if err := readRequestV2(strings.NewReader("\x00\x00"), &req); err == nil {
		t.Fatal("truncated header accepted")
	}
	var resp Response
	if err := readResponseV2(strings.NewReader("\x00\x00"), &resp); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	// Header claims 100 bytes, body has 3.
	const frame = "\x00\x00\x00\x64abc"
	var req Request
	if err := readRequestV2(strings.NewReader(frame), &req); err == nil {
		t.Fatal("truncated body accepted")
	}
	var resp Response
	if err := readResponseV2(strings.NewReader(frame), &resp); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestReadFrameOversized(t *testing.T) {
	// Header claims > MaxFrame.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	var req Request
	if err := readRequestV2(bytes.NewReader(hdr), &req); err == nil ||
		!strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame not rejected: %v", err)
	}
	var resp Response
	if err := readResponseV2(bytes.NewReader(hdr), &resp); err == nil ||
		!strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame not rejected: %v", err)
	}
}

func TestWriteFrameOversized(t *testing.T) {
	var buf bytes.Buffer
	req := Request{Op: OpStore, Data: make([]byte, MaxFrame+1)}
	if err := writeRequestV2(&buf, 1, &req); err == nil {
		t.Fatal("oversized write accepted")
	}
	if err := writeResponseV2(&buf, 1, &Response{OK: true, Data: req.Data}); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestCallDialFailure(t *testing.T) {
	p := NewPool()
	defer p.Close()
	if _, err := p.CallCtx(context.Background(), "127.0.0.1:1", &Request{Op: OpRing}, 0); err == nil {
		t.Fatal("call to dead address succeeded")
	}
}

func TestFrameLargePayload(t *testing.T) {
	var buf bytes.Buffer
	data := make([]byte, 8<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := writeRequestV2(&buf, 1, &Request{Op: OpStore, Data: data}); err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := readRequestV2(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, data) {
		t.Fatal("large payload corrupted")
	}
	got.Release()
}
