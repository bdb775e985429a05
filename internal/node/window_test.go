package node

import (
	"bytes"
	"testing"

	"peerstripe/internal/wire"
)

// TestStoreWindowOutOfOrder drives the windowed staging exchange
// directly against one server: the segments of a block arrive out of
// order, every ack carries the staged byte count (the flow-control
// signal), the block commits once the last byte lands, and a retried
// segment after commit is re-acknowledged instead of reopening a stage.
func TestStoreWindowOutOfOrder(t *testing.T) {
	servers, _ := startRing(t, 1, 1<<30)
	s := servers[0]
	const stream = 991
	blob := []byte("0123456789") // size 10, seg 4: segments of 4, 4, 2 bytes
	segAt := func(seq int) []byte {
		lo := seq * 4
		hi := lo + 4
		if hi > len(blob) {
			hi = len(blob)
		}
		return blob[lo:hi]
	}
	send := func(seq int) *wire.Response {
		resp, err := rpc(s.Addr(), wire.EncodeStoreWindow("win.blk", wire.WindowSegment{
			Stream: stream, Seq: seq, Total: 3, Size: 10, Seg: 4,
		}, segAt(seq)))
		if err != nil {
			t.Fatalf("segment %d: %v", seq, err)
		}
		return resp
	}

	wantStaged := []int64{2, 6, 10} // tail first, then 0, then the commit
	for i, seq := range []int{2, 0, 1} {
		resp := send(seq)
		if !resp.OK {
			t.Fatalf("segment %d rejected: %s", seq, resp.Err)
		}
		if resp.Capacity != wantStaged[i] {
			t.Fatalf("segment %d ack reports %d staged bytes, want %d", seq, resp.Capacity, wantStaged[i])
		}
	}
	if ops := s.WindowOps(); ops != 3 {
		t.Fatalf("WindowOps = %d after 3 segments", ops)
	}

	got, err := rpc(s.Addr(), &wire.Request{Op: wire.OpFetch, Name: "win.blk"})
	if err != nil || !bytes.Equal(got.Data, blob) {
		t.Fatalf("fetch after windowed store: %v, %q", err, got.Data)
	}

	// A duplicate of any segment after commit: its ack was lost and the
	// transport retried. The server must re-acknowledge the full size,
	// not reopen a stage or double-commit.
	if resp := send(0); !resp.OK || resp.Capacity != 10 {
		t.Fatalf("post-commit retry: OK=%v capacity=%d err=%q", resp.OK, resp.Capacity, resp.Err)
	}
	s.mu.Lock()
	open := len(s.stages)
	s.mu.Unlock()
	if open != 0 {
		t.Fatalf("%d stages left open after commit", open)
	}
}

// TestStoreWindowDuplicateSegment pins the mid-stream retry contract:
// a duplicate of an already-applied segment is re-acknowledged without
// corrupting the staged bytes or the progress accounting.
func TestStoreWindowDuplicateSegment(t *testing.T) {
	servers, _ := startRing(t, 1, 1<<30)
	s := servers[0]
	blob := []byte("abcdefgh") // size 8, seg 4: two segments
	seg := func(seq int, data []byte) *wire.Response {
		resp, err := rpc(s.Addr(), wire.EncodeStoreWindow("dup.blk", wire.WindowSegment{
			Stream: 7, Seq: seq, Total: 2, Size: 8, Seg: 4,
		}, data))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := seg(0, blob[:4]); !resp.OK || resp.Capacity != 4 {
		t.Fatalf("first segment: %+v", resp)
	}
	if resp := seg(0, blob[:4]); !resp.OK || resp.Capacity != 4 {
		t.Fatalf("duplicate segment not re-acked: %+v", resp)
	}
	if resp := seg(1, blob[4:]); !resp.OK || resp.Capacity != 8 {
		t.Fatalf("final segment: %+v", resp)
	}
	got, err := rpc(s.Addr(), &wire.Request{Op: wire.OpFetch, Name: "dup.blk"})
	if err != nil || !bytes.Equal(got.Data, blob) {
		t.Fatalf("fetch after duplicate-ridden store: %v, %q", err, got.Data)
	}
}

// TestStoreWindowSegmentErrors pins the kill-the-stage contract: a
// segment with the wrong byte count or geometry that disagrees with
// the opened stage terminates the stream with an error, and the stream
// identifier is free for a clean retry afterwards.
func TestStoreWindowSegmentErrors(t *testing.T) {
	servers, _ := startRing(t, 1, 1<<30)
	s := servers[0]
	call := func(stream uint64, seq, total int, size, segSize int64, data []byte) (*wire.Response, error) {
		return rpc(s.Addr(), wire.EncodeStoreWindow("err.blk", wire.WindowSegment{
			Stream: stream, Seq: seq, Total: total, Size: size, Seg: segSize,
		}, data))
	}

	// Wrong byte count for its slot.
	if _, err := call(20, 0, 2, 8, 4, []byte("abc")); err == nil {
		t.Fatal("short segment accepted")
	}
	// Open a stage, then continue it with a different geometry.
	if resp, err := call(21, 0, 2, 8, 4, []byte("abcd")); err != nil || !resp.OK {
		t.Fatalf("open: %+v, %v", resp, err)
	}
	// (Total 1 of 8-byte segments parses fine but disagrees with the
	// geometry that opened stream 21.)
	if _, err := call(21, 0, 1, 8, 8, []byte("efghefgh")); err == nil {
		t.Fatal("inconsistent segment accepted")
	}
	// The killed stream id retries cleanly from scratch.
	if resp, err := call(21, 0, 2, 8, 4, []byte("ABCD")); err != nil || !resp.OK {
		t.Fatalf("reopen after kill: %+v, %v", resp, err)
	}
	if resp, err := call(21, 1, 2, 8, 4, []byte("EFGH")); err != nil || !resp.OK || resp.Capacity != 8 {
		t.Fatalf("commit after kill: %+v, %v", resp, err)
	}
	got, err := rpc(s.Addr(), &wire.Request{Op: wire.OpFetch, Name: "err.blk"})
	if err != nil || !bytes.Equal(got.Data, []byte("ABCDEFGH")) {
		t.Fatalf("fetch after retried store: %v, %q", err, got.Data)
	}

	// Malformed framing the encoder cannot produce: a sequence number
	// outside the stream's range.
	if _, err := rpc(s.Addr(), &wire.Request{
		Op: wire.OpStoreWindow, Name: "err.blk",
		Names: []string{"22", "5", "2", "8", "4"},
		Data:  []byte("abcd"),
	}); err == nil {
		t.Fatal("out-of-range sequence accepted")
	}
}
