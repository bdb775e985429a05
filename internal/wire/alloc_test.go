package wire

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
)

// TestRoundTripAllocs pins what one pooled round trip allocates,
// client and server together, against the echo server: the response the
// handler returns, the response the caller gets back, and what a named
// request carries (the server's copy of the name and the echoed
// payload). Call state, request structs, goroutines, timers, frame heads
// and — once the caller releases the response — receive frames are
// recycled, not allocated per call: the caller's payload is a view.
func TestRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	addr, _ := startV2Server(t, echoHandler)
	p := NewPool()
	defer p.Close()
	for _, c := range []struct {
		name   string
		req    *Request
		budget float64
	}{
		{"ping", &Request{Op: OpPing}, 6},
		{"named fetch", &Request{Op: OpFetch, Name: "blk"}, 5},
	} {
		call := func() {
			resp, err := p.CallCtx(context.Background(), addr, c.req, 0)
			if err != nil {
				t.Fatal(err)
			}
			resp.Release()
		}
		call() // dial and warm up
		got := testing.AllocsPerRun(500, call)
		t.Logf("%s: %.0f allocations per round trip", c.name, got)
		if got > c.budget {
			t.Errorf("%s round trip allocates %.0f, want <= %.0f", c.name, got, c.budget)
		}
	}
}

// TestIdleConnectionsPinNoFrames checks that a connection idling between
// frames holds no pooled frame buffer on either side: 64 connections,
// each left idle after one round trip that moved a large frame each way,
// must grow the heap by far less than 64 frames would.
func TestIdleConnectionsPinNoFrames(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation distorts heap accounting")
	}
	const conns = 64
	addr, _ := startV2Server(t, func(req *Request) *Response {
		return &Response{OK: true, Data: req.Data}
	})
	payload := bytes.Repeat([]byte{7}, 1<<20)
	heap := func() uint64 {
		// Two collections: sync.Pool keeps a victim generation through one.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	pools := make([]*Pool, conns)
	for i := range pools {
		pools[i] = NewPool()
		defer pools[i].Close()
		resp, err := pools[i].CallCtx(context.Background(), addr, &Request{Op: OpStore, Name: fmt.Sprint(i), Data: payload}, 0)
		if err != nil || len(resp.Data) != len(payload) {
			t.Fatalf("connection %d: %v", i, err)
		}
	}
	grew := int64(heap()) - int64(before)
	// Each idle connection keeps two 64 KiB read buffers (client and
	// server loop) and a little bookkeeping: about 8 MiB for all 64.
	limit := int64(conns * maxPooledFrame / 8)
	t.Logf("%d idle connections grew the heap by %.1f MiB (limit %.1f MiB)", conns, float64(grew)/(1<<20), float64(limit)/(1<<20))
	if grew > limit {
		t.Fatalf("%d idle connections grew the heap by %d bytes, want under %d: frames are pinned between requests", conns, grew, limit)
	}
}
