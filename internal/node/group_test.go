package node

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
	"peerstripe/internal/ids"
	"peerstripe/internal/wire"
)

// callsByOp reads a client's round-trip counter for one op.
func callsByOp(c *Client, op wire.Op) int64 {
	return c.Telemetry().Counter("ps_client_calls_total", "Round trips issued, by protocol op.", "op", string(op)).Value()
}

// ownerFrames is the most exchanges a chunk's blocks should take when
// every owner's share moves in frames of at most one segment: the sum
// over owners of ⌈owner bytes / segment⌉.
func ownerFrames(ring []wire.NodeInfo, file string, ci, m int, blockLen, segment int64) int {
	bytes := map[string]int64{}
	for e := 0; e < m; e++ {
		o, _ := OwnerOf(ring, ids.FromName(core.BlockName(file, ci, e)))
		bytes[o.Addr] += blockLen
	}
	n := 0
	for _, b := range bytes {
		n += int((b + segment - 1) / segment)
	}
	return n
}

// TestOwnerGroupedCalls counts the round trips a 2-chunk online-coded
// object costs on a 5-node ring. Each owner's share of a chunk moves in
// ⌈owner bytes / segment⌉ exchanges — store and fetch alike — and a
// delete is one exchange per owner, where a frame per block took more
// than a hundred of each. The object reads back byte for byte. Then,
// on an xor file, the owner of the first block each chunk's read asks
// for is killed: its exchanges fail whole and every chunk still
// decodes from the others.
func TestOwnerGroupedCalls(t *testing.T) {
	const (
		chunk   = 1 << 20
		segment = 256 << 10 // an owner's ~24 blocks of 16 KiB take two frames
	)
	servers, seed := startRing(t, 5, 1<<30)
	code, err := core.CodeFor("online", "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c, err := NewClientCfg(ctx, seed, code, Config{Segment: segment})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ring := c.Ring()
	data := make([]byte, 2*chunk)
	rand.New(rand.NewSource(27)).Read(data)
	const name = "grouped.bin"
	m, n := code.EncodedBlocks(), int64(code.DataBlocks())
	bound := 0
	for ci := 0; ci < 2; ci++ {
		bound += ownerFrames(ring, name, ci, m, (chunk+n-1)/n, segment)
	}
	catCopies := int64(c.Config().CATReplicas + 1)

	ops := []wire.Op{wire.OpStore, wire.OpCapBatch, wire.OpFetch, wire.OpDelete}
	count := func() map[wire.Op]int64 {
		out := map[wire.Op]int64{}
		for _, op := range ops {
			out[op] = callsByOp(c, op)
		}
		return out
	}
	delta := func(before map[wire.Op]int64) map[wire.Op]int64 {
		out := count()
		for op := range out {
			out[op] -= before[op]
		}
		return out
	}

	before := count()
	if _, err := c.StoreBytes(ctx, name, data, core.PlanChunkSizes(int64(len(data)), chunk)); err != nil {
		t.Fatal(err)
	}
	d := delta(before)
	t.Logf("store: %d OpStore (bound %d + %d CAT copies), %d probes", d[wire.OpStore], bound, catCopies, d[wire.OpCapBatch])
	if d[wire.OpStore] > int64(bound)+catCopies {
		t.Errorf("store took %d OpStore calls, want <= %d owner frames + %d CAT copies", d[wire.OpStore], bound, catCopies)
	}
	if d[wire.OpCapBatch] > int64(len(ring)) {
		t.Errorf("store took %d probes, want <= one per owner (%d)", d[wire.OpCapBatch], len(ring))
	}

	before = count()
	got, err := c.FetchFileCtx(ctx, name)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("grouped read back: %v", err)
	}
	d = delta(before)
	// One CAT load, and a rateless decode that stalls short may add
	// one exchange per chunk.
	t.Logf("fetch: %d OpFetch (bound %d + 1 CAT + 2 rateless)", d[wire.OpFetch], bound)
	if d[wire.OpFetch] > int64(bound)+1+2 {
		t.Errorf("fetch took %d OpFetch calls, want <= %d", d[wire.OpFetch], bound+3)
	}

	before = count()
	if err := c.DeleteFileCtx(ctx, name); err != nil {
		t.Fatal(err)
	}
	d = delta(before)
	t.Logf("delete: %d OpDelete", d[wire.OpDelete])
	if d[wire.OpDelete] > int64(len(ring)) {
		t.Errorf("delete took %d OpDelete calls, want <= one per owner (%d)", d[wire.OpDelete], len(ring))
	}
	for _, s := range servers {
		if s.NumBlocks() != 0 || s.Used() != 0 {
			t.Errorf("node %s holds %d blocks (%d bytes) after the delete", s.Addr(), s.NumBlocks(), s.Used())
		}
	}

	// An xor file whose first-asked block's owner is killed.
	xor := erasure.MustXOR(2)
	cx, err := NewClientCfg(ctx, seed, xor, Config{Segment: segment})
	if err != nil {
		t.Fatal(err)
	}
	defer cx.Close()
	xname, victim := victimFile(t, ring, "grouped-xor", 2, xor.EncodedBlocks(), xor.EncodedBlocks()-xor.MinNeeded(), cx.Config().CATReplicas)
	if _, err := cx.StoreBytes(ctx, xname, data, core.PlanChunkSizes(int64(len(data)), chunk)); err != nil {
		t.Fatal(err)
	}
	for _, s := range servers {
		if s.Addr() == ring[victim].Addr {
			s.Close()
		}
	}
	failsBefore := cx.Telemetry().Counter("ps_client_call_errors_total", "Round trips that returned an error, by protocol op.", "op", string(wire.OpFetch)).Value()
	got, err = cx.FetchFileCtx(ctx, xname)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("xor read with %s killed: %v", ring[victim].Addr, err)
	}
	if fails := cx.Telemetry().Counter("ps_client_call_errors_total", "Round trips that returned an error, by protocol op.", "op", string(wire.OpFetch)).Value() - failsBefore; fails == 0 {
		t.Fatal("no fetch reached the killed owner: the test proved nothing")
	}
}

// groupRPC sends one group exchange straight to a node.
func groupRPC(t *testing.T, addr string, op wire.Op, prefix string, parts ...wire.Part) (*wire.Response, error) {
	t.Helper()
	return rpc(addr, &wire.Request{Op: op, Name: prefix, Parts: parts})
}

func part(key string, data []byte) wire.Part { return wire.Part{Key: []byte(key), Data: data} }

// TestStoreGroupRefusedWhole sends a node store groups a hostile or
// careless client could: one that names a block twice, and one that
// would overflow the node's capacity part-way through. Each is refused
// as a whole — used and the block map are as they were — and the
// groups that fit are then stored.
func TestStoreGroupRefusedWhole(t *testing.T) {
	servers, _ := startRing(t, 1, 10_000)
	s := servers[0]
	block := bytes.Repeat([]byte{1}, 3000)
	if _, err := groupRPC(t, s.Addr(), wire.OpStore, "f_0_", part("0", block), part("1", block), part("0", block)); err == nil {
		t.Fatal("a store group naming block 0 twice was accepted")
	}
	if s.Used() != 0 || s.NumBlocks() != 0 {
		t.Fatalf("a refused group left %d blocks, %d bytes", s.NumBlocks(), s.Used())
	}
	if _, err := groupRPC(t, s.Addr(), wire.OpStore, "f_0_", part("0", block), part("1", block)); err != nil {
		t.Fatal(err)
	}
	// 6000 used of 10 000: one more block fits, a group of three does not.
	_, err := groupRPC(t, s.Addr(), wire.OpStore, "f_1_", part("0", block), part("1", block), part("2", block))
	if err == nil {
		t.Fatal("a store group past the node's capacity was accepted")
	}
	if s.Used() != 6000 || s.NumBlocks() != 2 {
		t.Fatalf("a group refused for space left %d blocks, %d bytes; want 2 and 6000", s.NumBlocks(), s.Used())
	}
	// Overwriting a held block counts only the difference.
	if _, err := groupRPC(t, s.Addr(), wire.OpStore, "f_0_", part("1", block[:1000]), part("2", block)); err != nil {
		t.Fatal(err)
	}
	if s.Used() != 7000 || s.NumBlocks() != 3 {
		t.Fatalf("after an overwriting group: %d blocks, %d bytes; want 3 and 7000", s.NumBlocks(), s.Used())
	}
}

// TestFetchGroupMarksAbsent fetches a group naming one block its node
// never stored: the other blocks come back, in order, and the client
// reports the absent one as ErrNotFound. A delete group then removes
// the rest, absent names included, in one exchange.
func TestFetchGroupMarksAbsent(t *testing.T) {
	servers, seed := startRing(t, 1, 1<<20)
	s := servers[0]
	c, err := NewClientCfg(context.Background(), seed, erasure.MustXOR(2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	blocks := [][]byte{[]byte("zero"), []byte("one"), []byte("two")}
	if _, err := groupRPC(t, s.Addr(), wire.OpStore, "f_0_", part("0", blocks[0]), part("2", blocks[2])); err != nil {
		t.Fatal(err)
	}
	reads := s.FetchOps()
	got, rel, missing, err := c.fetchGroup(context.Background(), s.Addr(), "f_0_", []wire.Part{part("0", nil), part("1", nil), part("2", nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Release()
	if !bytes.Equal(got[0].Data, blocks[0]) || !bytes.Equal(got[2].Data, blocks[2]) {
		t.Fatalf("the held blocks came back as %q and %q", got[0].Data, got[2].Data)
	}
	if !got[1].Absent || missing == nil || !errors.Is(missing[1], ErrNotFound) {
		t.Fatalf("the absent block: part %+v, error %v; want absent and ErrNotFound", got[1], missing)
	}
	if missing[0] != nil || missing[2] != nil {
		t.Fatalf("held blocks reported missing: %v", missing)
	}
	if n := s.FetchOps() - reads; n != 3 {
		t.Fatalf("a fetch group of 3 counted %d block reads, want 3", n)
	}
	if _, err := groupRPC(t, s.Addr(), wire.OpDelete, "f_0_", part("0", nil), part("1", nil), part("2", nil)); err != nil {
		t.Fatal(err)
	}
	if s.NumBlocks() != 0 || s.Used() != 0 {
		t.Fatalf("a delete group left %d blocks, %d bytes", s.NumBlocks(), s.Used())
	}
	if _, err := c.fetchBlock(context.Background(), "f_0_0"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("single fetch of a deleted block: %v, want ErrNotFound", err)
	}
}
