package node

import (
	"fmt"
	"strings"
	"testing"

	"peerstripe/internal/ids"
	"peerstripe/internal/wire"
)

func TestRingSnapshotMergeSortedDeduped(t *testing.T) {
	var selfID ids.ID
	selfID[0] = 0xFF // sorts after the tiny synthetic IDs below
	s, err := NewServerOpts("127.0.0.1:0", 1000, "", ServerOptions{ID: &selfID})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a := wire.NodeInfo{ID: ids.FromUint64(3), Addr: "a:1"}
	b := wire.NodeInfo{ID: ids.FromUint64(1), Addr: "b:1"}
	c := wire.NodeInfo{ID: ids.FromUint64(2), Addr: "c:1"}
	s.applyAliveInfos([]wire.NodeInfo{a, b})
	s.applyAliveInfos([]wire.NodeInfo{c, b}) // b repeated: must not duplicate
	s.mu.Lock()
	out := append([]wire.NodeInfo(nil), s.ring...)
	s.mu.Unlock()
	if len(out) != 4 { // self + a, b, c
		t.Fatalf("merge produced %d entries", len(out))
	}
	// Sorted by ID and deduplicated; self (0xFF…) sorts last.
	if out[0].ID != b.ID || out[1].ID != c.ID || out[2].ID != a.ID {
		t.Fatalf("merge order wrong: %v", out)
	}
}

func TestServerStoreOverwriteAccounting(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", 1000, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	call := func(req *wire.Request) *wire.Response {
		resp, _ := rpc(s.Addr(), req)
		return resp
	}
	if resp := call(&wire.Request{Op: wire.OpStore, Name: "x", Data: make([]byte, 400)}); resp == nil || !resp.OK {
		t.Fatal("store failed")
	}
	if s.Used() != 400 {
		t.Fatalf("used = %d", s.Used())
	}
	// Overwrite with a smaller block shrinks usage.
	if resp := call(&wire.Request{Op: wire.OpStore, Name: "x", Data: make([]byte, 100)}); resp == nil || !resp.OK {
		t.Fatal("overwrite failed")
	}
	if s.Used() != 100 {
		t.Fatalf("used after overwrite = %d", s.Used())
	}
	// Overwrite that would exceed capacity is refused and state kept.
	resp := call(&wire.Request{Op: wire.OpStore, Name: "y", Data: make([]byte, 950)})
	if resp != nil && resp.OK {
		t.Fatal("overflow store accepted")
	}
	if s.Used() != 100 || s.NumBlocks() != 1 {
		t.Fatal("refused store mutated state")
	}
}

// TestServerGetCapReflectsUsage pins the §4.3 getCapacity answer, the
// batched OpCapBatch probe: the node's free space, which a store
// shrinks.
func TestServerGetCapReflectsUsage(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", 1000, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	probe := &wire.Request{Op: wire.OpCapBatch, Names: []string{"b"}}
	resp, err := rpc(s.Addr(), probe)
	if err != nil || resp.Capacity != 1000 {
		t.Fatalf("fresh capacity = %d, %v", resp.Capacity, err)
	}
	if _, err := rpc(s.Addr(), &wire.Request{Op: wire.OpStore, Name: "b", Data: make([]byte, 600)}); err != nil {
		t.Fatal(err)
	}
	resp, err = rpc(s.Addr(), probe)
	if err != nil || resp.Capacity != 400 {
		t.Fatalf("capacity after store = %d, %v", resp.Capacity, err)
	}
}

func TestServerDeleteFreesSpace(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", 1000, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rpc(s.Addr(), &wire.Request{Op: wire.OpStore, Name: "d", Data: make([]byte, 500)}) //nolint:errcheck
	if _, err := rpc(s.Addr(), &wire.Request{Op: wire.OpDelete, Name: "d"}); err != nil {
		t.Fatal(err)
	}
	if s.Used() != 0 || s.NumBlocks() != 0 {
		t.Fatal("delete did not free space")
	}
	// Deleting a missing block is a no-op, not an error.
	if _, err := rpc(s.Addr(), &wire.Request{Op: wire.OpDelete, Name: "ghost"}); err != nil {
		t.Fatal("delete of missing block errored")
	}
}

func TestServerAddOpExtendsRing(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", 1000, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	phantom := wire.NodeInfo{ID: ids.FromName("phantom"), Addr: "203.0.113.1:1"}
	if _, err := rpc(s.Addr(), &wire.Request{Op: wire.OpAdd, Node: phantom}); err != nil {
		t.Fatal(err)
	}
	if s.RingSize() != 2 {
		t.Fatalf("ring size = %d after add", s.RingSize())
	}
	// Duplicate add is idempotent.
	if _, err := rpc(s.Addr(), &wire.Request{Op: wire.OpAdd, Node: phantom}); err != nil {
		t.Fatal(err)
	}
	if s.RingSize() != 2 {
		t.Fatal("duplicate add grew the ring")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", 1000, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second close errored")
	}
}

func TestJoinViaDeadSeedFails(t *testing.T) {
	if _, err := NewServer("127.0.0.1:0", 1000, "127.0.0.1:1"); err == nil {
		t.Fatal("join through dead seed succeeded")
	}
}

// TestNoBlockRefusalText pins the "no block" refusal to the text it had
// when it was formatted with fmt: clients classify it by that text
// (asNotFound), quoting and all.
func TestNoBlockRefusalText(t *testing.T) {
	for _, name := range []string{"", "f.dat.CAT", "a_0_1", "quo\"te\n\x00é", strings.Repeat("long", 64)} {
		if got, want := noBlock(name).Err, fmt.Sprintf("no block %q", name); got != want {
			t.Errorf("noBlock(%q) = %q, want %q", name, got, want)
		}
	}
}
