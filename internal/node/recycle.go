package node

import (
	"slices"
	"sync"
	"unsafe"
	"weak"
)

// recycleSlots caps the buffers a recycler remembers. A store has at
// most pipelineDepth chunk buffers and as many coded backings in hand,
// and a stream one decode buffer, so a few slots cover the operations
// a client runs at once.
const recycleSlots = 8

// poisonByte fills a buffer given back to a recycler under the race
// detector: a view kept past put then reads as a run of it instead of
// the bytes that were there, which the byte-verifying suites catch.
const poisonByte = 0xdb

// recycler hands a client's large, short-lived buffers — the chunk
// buffers a store reads into, the backings chunks are encoded into
// (erasure.Code.EncodeInto), a stream's decode buffer — from the
// operation that is done with one to the next that needs one. It holds
// weak references only, so a buffer is reused between collections and
// freed by the next one as if it had never been recycled. A strong
// free list across operations keeps idle buffers live through every
// collection, and the collector then lets the heap grow to twice what
// is live: a sync.Pool raised the bigcopy benchmark's peak RSS by 30 %
// (docs/PERF.md "Recycling across stores").
type recycler struct {
	mu   sync.Mutex
	free []recycled
}

// recycled is a buffer given back: a weak pointer to its first byte,
// and its capacity, from which get rebuilds the slice.
type recycled struct {
	first weak.Pointer[byte]
	cap   int
}

// get returns a buffer of length n: of those given back with the
// capacity for n that no collection has freed since, the smallest, and
// among equal sizes the oldest; or a new one. Handing out the first
// buffer with room would let a large coded backing serve a small chunk
// buffer, and the next backing would then be allocated afresh. get
// forgets every buffer a collection has freed. The contents are
// unspecified.
func (r *recycler) get(n int64) []byte {
	var b []byte
	r.mu.Lock()
	best := -1
	kept := r.free[:0]
	for _, e := range r.free {
		first := e.first.Value()
		if first == nil { // collected
			continue
		}
		if int64(e.cap) >= n && (best < 0 || e.cap < kept[best].cap) {
			best = len(kept)
			b = unsafe.Slice(first, e.cap)[:n]
		}
		kept = append(kept, e)
	}
	if best >= 0 {
		kept = slices.Delete(kept, best, best+1)
	}
	clear(r.free[len(kept):])
	r.free = kept
	r.mu.Unlock()
	if b == nil {
		b = make([]byte, n)
	}
	return b
}

// put gives b back for a later get; with every slot taken, the oldest
// buffer is forgotten. The caller must hold no view of b, and must not
// put it twice: its bytes are the next user's. Under the race detector
// they are poisoned at once.
func (r *recycler) put(b []byte) {
	b = b[:cap(b)]
	if len(b) == 0 {
		return
	}
	if raceEnabled {
		for i := range b {
			b[i] = poisonByte
		}
	}
	e := recycled{first: weak.Make(&b[0]), cap: len(b)}
	r.mu.Lock()
	if len(r.free) == recycleSlots {
		copy(r.free, r.free[1:])
		r.free = r.free[:recycleSlots-1]
	}
	r.free = append(r.free, e)
	r.mu.Unlock()
}
