package node

import (
	"bytes"
	"runtime"
	"testing"
)

// TestRecyclerReuses checks get's choice: the smallest buffer given
// back with room, and among equal sizes the oldest, resliced to the
// length asked for, while a buffer too small for the request stays for
// a later, smaller one; and put forgets the oldest buffer once every
// slot is taken.
func TestRecyclerReuses(t *testing.T) {
	var r recycler
	small, large := make([]byte, 1<<10), make([]byte, 1<<20)
	r.put(small)
	r.put(large)
	if got := r.get(4 << 10); len(got) != 4<<10 || &got[0] != &large[0] {
		t.Fatal("get did not hand back the one buffer with room")
	}
	if got := r.get(1 << 10); &got[0] != &small[0] {
		t.Fatal("a buffer too small for an earlier request was dropped")
	}
	if got := r.get(1 << 10); &got[0] == &small[0] || &got[0] == &large[0] {
		t.Fatal("get handed out a buffer that was not given back")
	}
	// A large backing given back first must not serve a smaller chunk
	// buffer while a buffer of that size is free: the next backing
	// request would then find none.
	backing, chunk, backing2 := make([]byte, 2<<20), make([]byte, 1<<20), make([]byte, 2<<20)
	r.put(backing)
	r.put(chunk)
	r.put(backing2)
	if got := r.get(1 << 20); &got[0] != &chunk[0] {
		t.Fatal("get handed out a larger buffer than the smallest with room")
	}
	if got := r.get(2 << 20); &got[0] != &backing[0] {
		t.Fatal("get did not hand out the oldest of two equal buffers")
	}
	if got := r.get(2 << 20); &got[0] != &backing2[0] {
		t.Fatal("the second backing was dropped")
	}
	bufs := make([][]byte, recycleSlots+1)
	for i := range bufs {
		bufs[i] = make([]byte, 1<<10)
		r.put(bufs[i])
	}
	for i := 1; i < len(bufs); i++ {
		if got := r.get(1 << 10); &got[0] != &bufs[i][0] {
			t.Fatalf("get %d: not the buffer given back %d-th", i, i)
		}
	}
	runtime.KeepAlive(bufs)
}

// TestRecyclerHoldsNothingAcrossGC is the property a sync.Pool lacks:
// buffers given back and then left alone through two collections are
// freed, so get allocates a fresh, zeroed buffer and the recycler
// remembers nothing. A recycler that held its buffers strongly would
// keep every idle byte live at each collection.
func TestRecyclerHoldsNothingAcrossGC(t *testing.T) {
	const size = 256 << 10
	var r recycler
	giveBack := func() { // in its own frame, so no stack slot keeps a buffer
		for i := 0; i < 4; i++ {
			b := make([]byte, size)
			for j := range b {
				b[j] = 7
			}
			r.put(b)
		}
	}
	giveBack()
	runtime.GC()
	runtime.GC()
	got := r.get(size)
	if !bytes.Equal(got, make([]byte, size)) {
		t.Fatal("get after two collections handed back a used buffer: the recycler kept it alive")
	}
	if len(r.free) != 0 {
		t.Fatalf("the recycler still lists %d buffers after two collections", len(r.free))
	}
}

// TestRecycledBufferPoisoned keeps a view of a buffer past put on
// purpose. Under the race detector put poisons the buffer, so the stale
// view reads as poison instead of the bytes that were there — what
// makes every byte-verifying suite a use-after-recycle detector under
// `make race`: a block still being sent, or a chunk still being read,
// after its store gave the buffer back.
func TestRecycledBufferPoisoned(t *testing.T) {
	if !raceEnabled {
		t.Skip("recycled buffers are poisoned only under the race detector")
	}
	var r recycler
	b := r.get(64 << 10)
	for i := range b {
		b[i] = 7
	}
	stale := b[100:200]
	r.put(b)
	if !bytes.Equal(stale, bytes.Repeat([]byte{poisonByte}, len(stale))) {
		t.Fatal("a view used after put still reads the recycled bytes: the poison did not land")
	}
}
