package wire

import (
	"bufio"
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestFrameClasses pins the pools' size classes to what reserve rounds
// to: a power-of-two payload plus the header slack, the largest class
// exactly maxPooledFrame.
func TestFrameClasses(t *testing.T) {
	if got := classSize(frameClasses - 1); got != maxPooledFrame {
		t.Fatalf("largest class holds %d bytes, want maxPooledFrame %d", got, maxPooledFrame)
	}
	if _, ok := frameClass(maxPooledFrame + 1); ok {
		t.Fatal("a frame past maxPooledFrame has a class")
	}
	for k := 0; k < frameClasses; k++ {
		if got, ok := frameClass(classSize(k)); !ok || got != k {
			t.Fatalf("a frame of class %d's size %d is in class %d", k, classSize(k), got)
		}
		if k > 0 {
			if got, _ := frameClass(classSize(k-1) + 1); got != k {
				t.Fatalf("a frame one byte past class %d is in class %d, want %d", k-1, got, k)
			}
		}
	}
}

// encodedRequest frames req as a connection would carry it.
func encodedRequest(t *testing.T, req *Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeRequestV2(&buf, 1, req); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFrameGetsItsOwnClass reads a small frame after a segment-sized
// one went back to the pools: the small frame gets a buffer of its own
// class, so a block kept from it never pins a segment.
func TestFrameGetsItsOwnClass(t *testing.T) {
	big := encodedRequest(t, &Request{Op: OpStore, Name: "seg", Data: make([]byte, DefaultSegment)})
	small := encodedRequest(t, &Request{Op: OpStore, Name: "cat", Data: make([]byte, 300)})
	mid := encodedRequest(t, &Request{Op: OpStore, Name: "blk", Data: make([]byte, 1<<20)})
	for i := 0; i < 4; i++ {
		for _, raw := range [][]byte{big, small, mid} {
			f, err := readFrame(bytes.NewReader(raw), false)
			if err != nil {
				t.Fatal(err)
			}
			k, ok := frameClass(len(raw) - 4)
			if !ok || cap(f.b) != classSize(k) {
				t.Fatalf("a %d-byte frame was read into a buffer of %d, want its class's %d", len(raw)-4, cap(f.b), classSize(k))
			}
			releaseFrame(&f)
		}
	}
}

// TestResponseFrameTakesNextClass checks the one exception to a
// frame's own class: with its class's free list empty, a response frame
// takes a free buffer of the next class up, never two up, and a request
// frame, which a handler may keep, takes neither.
func TestResponseFrameTakesNextClass(t *testing.T) {
	raw := encodedRequest(t, &Request{Op: OpFetch, Name: "blk", Data: make([]byte, 64<<10)})
	k, _ := frameClass(len(raw) - 4)
	read := func(response bool) *frameBuf {
		t.Helper()
		f, err := readFrame(bytes.NewReader(raw), response)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	drain := func() {
		for _, c := range []int{k, k + 1, k + 2} {
			for takeFrameBuf(c) != nil {
			}
		}
	}
	free := func(c int) *frameBuf { // a free buffer of class c, kept alive by the caller
		buf := &frameBuf{b: make([]byte, 0, classSize(c))}
		putFrameBuf(buf)
		return buf
	}
	for _, tc := range []struct {
		response bool
		free     int
		want     int
	}{
		{true, k + 1, classSize(k + 1)},
		{true, k + 2, classSize(k)},
		{false, k + 1, classSize(k)},
	} {
		drain()
		kept := free(tc.free)
		f := read(tc.response)
		if cap(f.b) != tc.want {
			t.Errorf("response %v, a free buffer of class %d (frame class %d): read into %d bytes, want %d", tc.response, tc.free, k, cap(f.b), tc.want)
		}
		releaseFrame(&f)
		runtime.KeepAlive(kept)
	}
	drain()
}

// TestRetainOutlivesRelease checks the reference count: a retained
// frame keeps the request's bytes past Release, until the Frame is
// released, and only then goes back — poisoned under the race detector.
// A Frame released twice through copies panics rather than hand a
// frame that is still viewed to another message.
func TestRetainOutlivesRelease(t *testing.T) {
	payload := bytes.Repeat([]byte("kept"), unpooledPayload/4+1)
	raw := encodedRequest(t, &Request{Op: OpStore, Name: "b", Data: payload})
	var req Request
	if err := readRequestV2(bufio.NewReader(bytes.NewReader(raw)), &req); err != nil {
		t.Fatal(err)
	}
	view := req.Data
	f := req.Retain()
	if f.Cap() < len(raw)-4 {
		t.Fatalf("retained frame of capacity %d holds less than the %d-byte frame", f.Cap(), len(raw)-4)
	}
	req.Release()
	if !bytes.Equal(view, payload) {
		t.Fatal("a retained frame's bytes changed when the request was released")
	}
	copied := f
	f.Release()
	if f != (Frame{}) || f.Cap() != 0 {
		t.Fatal("a released Frame still refers to its frame")
	}
	f.Release() // cleared: a no-op
	if raceEnabled && !bytes.Equal(view, bytes.Repeat([]byte{poisonByte}, len(view))) {
		t.Fatal("the last release did not poison the frame")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a frame more often than it was retained did not panic")
		}
	}()
	copied.Release()
}

// TestServeDropsAnswerHolds runs a handler that keeps stored bytes by
// retaining their frame and answers fetches from them with the frame
// held on each part. Serve must drop every pin once it has written the
// answer: when the handler then releases the frame, it goes back to the
// pools (and is poisoned under the race detector). A pinned answer
// costs no more allocations than an unpinned one.
func TestServeDropsAnswerHolds(t *testing.T) {
	var (
		mu   sync.Mutex
		kept []byte
		held Frame
		buf  *frameBuf
	)
	addr, _ := startV2Server(t, func(req *Request) *Response {
		mu.Lock()
		defer mu.Unlock()
		switch req.Op {
		case OpStore:
			held = req.Retain()
			kept, buf = req.Data, held.buf
			return &Response{OK: true}
		case OpFetch:
			req.Parts[0].Data = kept
			if req.Name == "pinned" {
				req.Parts[0].Hold(held)
			}
			return &Response{OK: true, Parts: req.Parts}
		case OpDelete:
			held.Release()
			return &Response{OK: true}
		}
		return &Response{Err: "unexpected op"}
	})
	p := NewPool()
	defer p.Close()
	ctx := context.Background()
	block := bytes.Repeat([]byte("stored"), 64<<10)
	if _, err := p.CallCtx(ctx, addr, &Request{Op: OpStore, Name: "b", Data: block}, 0); err != nil {
		t.Fatal(err)
	}
	fetch := func(name string) {
		resp, err := p.CallCtx(ctx, addr, &Request{Op: OpFetch, Name: name, Parts: []Part{{Key: []byte("0")}}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Release()
		if len(resp.Parts) != 1 || !bytes.Equal(resp.Parts[0].Data, block) {
			t.Fatal("the answer is not the stored bytes")
		}
	}
	for i := 0; i < 8; i++ {
		fetch("pinned")
	}
	if !raceEnabled {
		fetch("plain")
		plain := testing.AllocsPerRun(100, func() { fetch("plain") })
		pinned := testing.AllocsPerRun(100, func() { fetch("pinned") })
		if pinned > plain {
			t.Errorf("a pinned answer allocates %.0f per round trip, an unpinned one %.0f", pinned, plain)
		}
	}
	if _, err := p.CallCtx(ctx, addr, &Request{Op: OpDelete, Name: "b"}, 0); err != nil {
		t.Fatal(err)
	}
	// The worker drops a pin after the answer has left, which may be
	// after its caller has it.
	for deadline := time.Now().Add(5 * time.Second); buf.refs.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the frame still has %d references after every answer was written and the handler let it go", buf.refs.Load())
		}
	}
	if raceEnabled && !bytes.Equal(kept, bytes.Repeat([]byte{poisonByte}, len(kept))) {
		t.Fatal("the frame's last release did not poison it")
	}
}
