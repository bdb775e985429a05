package node

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"peerstripe/internal/wire"
)

// frameCall is one round trip to addr over p whose answer is the
// caller's own: payloads are copied out of the receive frame, which
// goes back to the pools.
func frameCall(t *testing.T, p *wire.Pool, addr string, req *wire.Request) *wire.Response {
	t.Helper()
	resp, err := p.CallCtx(context.Background(), addr, req, 10*time.Second)
	if resp == nil {
		t.Fatalf("%s %q: %v", req.Op, req.Name, err)
	}
	own := &wire.Response{OK: resp.OK, Err: resp.Err, Absent: resp.Absent, Data: bytes.Clone(resp.Data)}
	for _, part := range resp.Parts {
		own.Parts = append(own.Parts, wire.Part{Data: bytes.Clone(part.Data), Absent: part.Absent})
	}
	resp.Release()
	return own
}

// frameBytes reads the node's ps_node_frame_bytes gauge.
func frameBytes(s *Server) int64 {
	return s.Telemetry().Snapshot().Gauges["ps_node_frame_bytes"]
}

// heldFrames returns the frames the node's blocks keep.
func heldFrames(s *Server) map[*heldFrame]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	held := make(map[*heldFrame]bool)
	for _, b := range s.blocks {
		if b.held != nil {
			held[b.held] = true
		}
	}
	return held
}

// checkReleased fails unless every frame in held went back: no block
// counts on it and its reference is dropped.
func checkReleased(t *testing.T, held map[*heldFrame]bool, after string) {
	t.Helper()
	for h := range held {
		if h.blocks != 0 || h.frame != (wire.Frame{}) {
			t.Fatalf("after %s a frame is still retained, by %d blocks", after, h.blocks)
		}
	}
}

// Block sizes the fuzz target stores: empty, inside the header slack,
// across size classes, and several blocks to a frame.
var fuzzFrameSizes = []int{0, 1, 300, 4 << 10, 5000, 64 << 10, 100 << 10}

const (
	fuzzFrameKeys     = 8
	fuzzFrameCapacity = 320 << 10
)

// FuzzBlockFrames drives a live node with a sequence of stores, single
// and grouped, over a few names, so most stores overwrite — deletes,
// single and grouped, and fetches, ranged group parts and plain. Each
// record of three bytes is one request: an op, a first key and a
// shape. A model map says what the node must hold. Every fetch must
// answer the model's bytes, refused or absent exactly where the model
// says; used must equal the model's bytes and stay inside capacity, and
// a store that would pass it must be refused whole. Once everything is
// deleted, no frame may still be retained: stored blocks keep the
// frames they arrived in, and each must go back when its last block
// does. Under the race detector a frame released too early is poisoned,
// so a block that outlives its frame reads wrong.
func FuzzBlockFrames(f *testing.F) {
	f.Add([]byte{0, 0, 5, 5, 0, 0, 0, 0, 2, 2, 0, 0, 5, 0, 0})                               // store, fetch, overwrite, delete
	f.Add([]byte{1, 0, 3 | 5<<2, 4, 0, 2, 1, 1, 2, 4, 0, 3, 3, 0, 1, 5, 2, 0})               // a group, its parts, an overlapping group
	f.Add([]byte{1, 0, 3 | 5<<2, 1, 4, 3 | 5<<2, 4, 4, 3, 3, 0, 3, 1, 4, 3 | 5<<2, 4, 4, 3}) // past capacity: refused whole, then fits
	f.Add([]byte{1, 0, 2 | 2<<2, 0, 1, 6, 4, 0, 2 | 0x40, 2, 0, 0, 4, 0, 2, 5, 1, 0})
	f.Add([]byte{0, 7, 0, 1, 6, 1, 5, 7, 0, 4, 6, 1 | 0x30, 3, 6, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*64 {
			ops = ops[:3*64]
		}
		s, err := NewServer("127.0.0.1:0", fuzzFrameCapacity, "")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		p := wire.NewPool()
		defer p.Close()
		call := func(req *wire.Request) *wire.Response { return frameCall(t, p, s.Addr(), req) }

		model := make(map[string][]byte)
		used := func() (n int64) {
			for _, b := range model {
				n += int64(len(b))
			}
			return n
		}
		held := make(map[*heldFrame]bool)
		key := func(k int) string { return strconv.Itoa(k % fuzzFrameKeys) }
		for step := 0; len(ops) >= 3; step, ops = step+1, ops[3:] {
			op, k, shape := ops[0]%6, int(ops[1]), int(ops[2])
			n := 1 + shape&3 // group size
			var resp *wire.Response
			switch op {
			case 0, 1: // store one block plainly, or n blocks as a group
				if op == 0 {
					n = 1
				}
				rng := rand.New(rand.NewSource(int64(step)))
				blocks := make([][]byte, n)
				var parts []wire.Part
				delta := int64(0)
				for i := range blocks {
					blocks[i] = make([]byte, fuzzFrameSizes[(shape>>2+i)%len(fuzzFrameSizes)])
					rng.Read(blocks[i])
					delta += int64(len(blocks[i])) - int64(len(model["f_"+key(k+i)]))
					parts = append(parts, wire.Part{Key: []byte(key(k + i)), Data: blocks[i]})
				}
				if op == 0 {
					resp = call(&wire.Request{Op: wire.OpStore, Name: "f_" + key(k), Data: blocks[0]})
				} else {
					resp = call(&wire.Request{Op: wire.OpStore, Name: "f_", Parts: parts})
				}
				fits := used()+delta <= fuzzFrameCapacity
				if resp.OK != fits {
					t.Fatalf("step %d: store of %d blocks, %d bytes more, at %d of %d used: ok %v (%s)", step, n, delta, used(), fuzzFrameCapacity, resp.OK, resp.Err)
				}
				if fits {
					for i, b := range blocks {
						model["f_"+key(k+i)] = b
					}
				}
				for h := range heldFrames(s) {
					held[h] = true
				}
			case 2: // delete one block
				call(&wire.Request{Op: wire.OpDelete, Name: "f_" + key(k)})
				delete(model, "f_"+key(k))
			case 3: // delete a group
				var parts []wire.Part
				for i := 0; i < n; i++ {
					parts = append(parts, wire.Part{Key: []byte(key(k + i))})
					delete(model, "f_"+key(k+i))
				}
				call(&wire.Request{Op: wire.OpDelete, Name: "f_", Parts: parts})
			case 4: // fetch a group of ranges
				off, length := int64(shape>>4)*997, int64(shape>>2&3)*40000
				if length == 0 {
					length = 1 << 20
				}
				var parts []wire.Part
				refused := false
				for i := 0; i < n; i++ {
					parts = append(parts, wire.Part{Key: []byte(key(k + i)), Off: off, Len: length})
					if b, ok := model["f_"+key(k+i)]; ok && off > int64(len(b)) {
						refused = true
					}
				}
				resp = call(&wire.Request{Op: wire.OpFetch, Name: "f_", Parts: parts})
				if refused {
					if resp.OK {
						t.Fatalf("step %d: a range at %d past a block's end was answered", step, off)
					}
					break
				}
				if !resp.OK || len(resp.Parts) != n {
					t.Fatalf("step %d: fetch of %d parts answered ok %v with %d (%s)", step, n, resp.OK, len(resp.Parts), resp.Err)
				}
				for i, got := range resp.Parts {
					want, ok := model["f_"+key(k+i)]
					if !ok {
						if !got.Absent {
							t.Fatalf("step %d: deleted block f_%s answered", step, key(k+i))
						}
						continue
					}
					want = want[off:min(off+length, int64(len(want)))]
					if got.Absent || !bytes.Equal(got.Data, want) {
						t.Fatalf("step %d: block f_%s [%d, +%d) answered %d bytes (absent %v), not the %d stored", step, key(k+i), off, length, len(got.Data), got.Absent, len(want))
					}
				}
			case 5: // fetch one block plainly
				resp = call(&wire.Request{Op: wire.OpFetch, Name: "f_" + key(k)})
				want, ok := model["f_"+key(k)]
				if ok != resp.OK || ok && !bytes.Equal(resp.Data, want) || !ok && !resp.Absent {
					t.Fatalf("step %d: block f_%s answered ok %v, %d bytes; stored %v, %d bytes", step, key(k), resp.OK, len(resp.Data), ok, len(want))
				}
			}
			if got, want := s.Used(), used(); got != want || got > fuzzFrameCapacity {
				t.Fatalf("step %d: %d bytes used, the model holds %d, capacity %d", step, got, want, fuzzFrameCapacity)
			}
		}
		var all []wire.Part
		for k := 0; k < fuzzFrameKeys; k++ {
			all = append(all, wire.Part{Key: []byte(key(k))})
		}
		call(&wire.Request{Op: wire.OpDelete, Name: "f_", Parts: all})
		if s.NumBlocks() != 0 || s.Used() != 0 || frameBytes(s) != 0 {
			t.Fatalf("after deleting everything: %d blocks, %d bytes used, %d frame bytes kept", s.NumBlocks(), s.Used(), frameBytes(s))
		}
		checkReleased(t, held, "deleting every block")
	})
}

// TestFrameBytesGauge checks ps_node_frame_bytes: the frames stored
// blocks keep hold at least their bytes and, in their size classes,
// under twice the bytes plus a header's slack per frame; a block from
// windowed segments keeps none; and the gauge returns to 0 once every
// block is deleted.
func TestFrameBytesGauge(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", 1<<30, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := wire.NewPool()
	defer p.Close()
	call := func(req *wire.Request) {
		if resp := frameCall(t, p, s.Addr(), req); !resp.OK {
			t.Fatalf("%s %q: %s", req.Op, req.Name, resp.Err)
		}
	}
	var parts []wire.Part
	for i, n := range []int{300, 64 << 10, 100 << 10, 3000} {
		parts = append(parts, wire.Part{Key: []byte(strconv.Itoa(i)), Data: make([]byte, n)})
	}
	call(&wire.Request{Op: wire.OpStore, Name: "g_", Parts: parts})
	call(&wire.Request{Op: wire.OpStore, Name: "cat", Data: make([]byte, 300)})
	call(&wire.Request{Op: wire.OpStore, Name: "one", Data: make([]byte, 1<<20)})
	const frames, slack = 3, 4 << 10
	used, kept := s.Used(), frameBytes(s)
	t.Logf("%d bytes stored keep %d bytes of frames", used, kept)
	if kept < used || kept >= 2*used+frames*slack {
		t.Fatalf("%d bytes stored in %d frames keep %d bytes of frames", used, frames, kept)
	}
	win := bytes.Repeat([]byte{9}, 3*1000)
	for seq := 0; seq < 3; seq++ {
		seg := wire.WindowSegment{Stream: 7, Seq: seq, Total: 3, Size: int64(len(win)), Seg: 1000}
		call(wire.EncodeStoreWindow("win", seg, win[seq*1000:(seq+1)*1000]))
	}
	if got := frameBytes(s); got != kept {
		t.Fatalf("a block assembled from windowed segments changed the frame bytes %d → %d", kept, got)
	}
	for _, name := range []string{"cat", "one", "win"} {
		call(&wire.Request{Op: wire.OpDelete, Name: name})
	}
	if frameBytes(s) == 0 {
		t.Fatal("deleting the single-frame blocks let the group's frame go")
	}
	call(&wire.Request{Op: wire.OpDelete, Name: "g_", Parts: parts})
	if got := frameBytes(s); got != 0 || s.Used() != 0 {
		t.Fatalf("after deleting every block: %d frame bytes, %d used", got, s.Used())
	}
}

// TestFrameBudgetBoundsTinyBlocks stores 1-byte blocks until the node
// refuses one. Each keeps a frame of over 4 KiB, its class's header
// slack, so the node's capacity alone would let a client make it hold
// thousands of times that in frames: the frame budget must refuse the
// store that would pass it, ps_node_frame_bytes must stay inside it,
// the refusal must come within a frame of the budget, and the refused
// store must keep nothing.
func TestFrameBudgetBoundsTinyBlocks(t *testing.T) {
	const capacity = 1 << 20
	s, err := NewServer("127.0.0.1:0", capacity, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := wire.NewPool()
	defer p.Close()
	budget := s.frameBudget()
	stored := 0
	for ; ; stored++ {
		if stored > int(budget>>12) {
			t.Fatalf("%d 1-byte blocks stored, %d bytes of frames kept, no refusal", stored, frameBytes(s))
		}
		before := frameBytes(s)
		resp := frameCall(t, p, s.Addr(), &wire.Request{Op: wire.OpStore, Name: fmt.Sprint("tiny", stored), Data: []byte{byte(stored)}})
		if !resp.OK {
			if got := frameBytes(s); got != before || s.NumBlocks() != stored {
				t.Fatalf("a refused store changed the frame bytes %d → %d and left %d blocks of %d", before, got, s.NumBlocks(), stored)
			}
			break
		}
		if got := frameBytes(s); got > budget {
			t.Fatalf("%d 1-byte blocks keep %d bytes of frames, past the budget of %d", stored+1, got, budget)
		}
	}
	t.Logf("%d 1-byte blocks (%d bytes used) keep %d bytes of frames; capacity %d, budget %d", stored, s.Used(), frameBytes(s), capacity, budget)
	if s.Used() != int64(stored) || frameBytes(s) > budget || budget-frameBytes(s) > 8<<10 {
		t.Fatalf("refused after %d blocks, %d bytes used, %d frame bytes kept of a budget of %d", stored, s.Used(), frameBytes(s), budget)
	}
	for i := 0; i < stored; i++ {
		frameCall(t, p, s.Addr(), &wire.Request{Op: wire.OpDelete, Name: fmt.Sprint("tiny", i)})
	}
	if got := frameBytes(s); got != 0 || s.Used() != 0 {
		t.Fatalf("after deleting every block: %d frame bytes, %d used", got, s.Used())
	}
	// With the frames back, the node takes a store again.
	if resp := frameCall(t, p, s.Addr(), &wire.Request{Op: wire.OpStore, Name: "again", Data: []byte{1}}); !resp.OK {
		t.Fatalf("an emptied node refused a 1-byte block: %s", resp.Err)
	}
}

// TestCloseReleasesBlockFrames checks that a closed node gives back the
// frames its blocks kept, as a departing desktop drops what it held.
func TestCloseReleasesBlockFrames(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", 1<<30, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := wire.NewPool()
	defer p.Close()
	for i := 0; i < 4; i++ {
		frameCall(t, p, s.Addr(), &wire.Request{Op: wire.OpStore, Name: fmt.Sprint("b", i), Data: make([]byte, 10<<10)})
	}
	frameCall(t, p, s.Addr(), &wire.Request{Op: wire.OpStore, Name: "g_", Parts: []wire.Part{
		{Key: []byte("0"), Data: make([]byte, 5)}, {Key: []byte("1"), Data: make([]byte, 7)},
	}})
	held := heldFrames(s)
	if len(held) != 5 {
		t.Fatalf("5 stores keep %d frames", len(held))
	}
	s.Close()
	if s.NumBlocks() != 0 || s.Used() != 0 || frameBytes(s) != 0 {
		t.Fatalf("after Close: %d blocks, %d bytes used, %d frame bytes kept", s.NumBlocks(), s.Used(), frameBytes(s))
	}
	checkReleased(t, held, "Close")
}

// TestLiveFetchPinOutlivesDelete deletes blocks while a fetch answer
// carrying them is stalled mid-write, then stores new blocks of the
// same size class, which take freed frames from the pools. The stalled
// answer must still deliver the old bytes: fetchGroup pins each
// answered block's frame until Serve has written it. The answer is
// larger than the socket buffers on its way, so the write is blocked
// on the frames themselves when the blocks go.
func TestLiveFetchPinOutlivesDelete(t *testing.T) {
	const (
		blocks = 24
		size   = 1 << 20
	)
	s, err := NewServer("127.0.0.1:0", 1<<30, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	proxy := newFlakyProxy(t, s.Addr(), 1, 0)
	direct := wire.NewPool()
	defer direct.Close()
	old := make([][]byte, blocks)
	parts := make([]wire.Part, blocks)
	for i := range old {
		old[i] = make([]byte, size)
		rand.New(rand.NewSource(int64(i))).Read(old[i])
		if resp := frameCall(t, direct, s.Addr(), &wire.Request{Op: wire.OpStore, Name: "old_" + strconv.Itoa(i), Data: old[i]}); !resp.OK {
			t.Fatal(resp.Err)
		}
		parts[i] = wire.Part{Key: []byte(strconv.Itoa(i)), Len: size}
	}

	proxy.stallResponsesAfter(64 << 10)
	viaProxy := wire.NewPool()
	defer viaProxy.Close()
	answered := make(chan *wire.Response, 1)
	go func() {
		resp, err := viaProxy.CallCtx(context.Background(), proxy.addr(), &wire.Request{Op: wire.OpFetch, Name: "old_", Parts: parts}, 30*time.Second)
		if err != nil {
			t.Error(err)
		}
		answered <- resp
	}()
	waitFor(t, 10*time.Second, "the answer to stall", func() bool {
		return proxy.respBytes.Load() >= proxy.stallAt.Load()
	})
	time.Sleep(50 * time.Millisecond) // the socket buffers fill, and the write blocks

	for i := range old {
		frameCall(t, direct, s.Addr(), &wire.Request{Op: wire.OpDelete, Name: "old_" + strconv.Itoa(i)})
	}
	fresh := bytes.Repeat([]byte{0x5a}, size)
	for i := 0; i < 2*blocks; i++ {
		frameCall(t, direct, s.Addr(), &wire.Request{Op: wire.OpStore, Name: "new_" + strconv.Itoa(i), Data: fresh})
	}
	proxy.stallAt.Store(0)

	resp := <-answered
	if resp == nil {
		t.Fatal("no answer")
	}
	defer resp.Release()
	if !resp.OK || len(resp.Parts) != blocks {
		t.Fatalf("answered ok %v with %d parts: %s", resp.OK, len(resp.Parts), resp.Err)
	}
	for i, part := range resp.Parts {
		if !bytes.Equal(part.Data, old[i]) {
			t.Fatalf("block %d of the stalled answer is not the bytes it had when it was asked for", i)
		}
	}
	// Only the new blocks' frames are kept, each within a header's
	// slack of its block.
	if got := frameBytes(s); got < 2*blocks*size || got > 2*blocks*(size+8<<10) {
		t.Fatalf("%d new blocks of %d bytes keep %d bytes of frames", 2*blocks, size, got)
	}
}
