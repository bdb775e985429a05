package node

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
	"peerstripe/internal/grid"
	"peerstripe/internal/ids"
	"peerstripe/internal/wire"
)

// testPool carries the package tests' direct requests to nodes.
var testPool = wire.NewPool()

// rpc is one direct round trip to the node at addr, the way a peer
// makes it.
func rpc(addr string, req *wire.Request) (*wire.Response, error) {
	return testPool.CallCtx(context.Background(), addr, req, 0)
}

// startRing launches n in-process TCP nodes and returns them with the
// seed address.
func startRing(t testing.TB, n int, capacity int64) ([]*Server, string) {
	t.Helper()
	var servers []*Server
	seed := ""
	for i := 0; i < n; i++ {
		s, err := NewServer("127.0.0.1:0", capacity, seed)
		if err != nil {
			t.Fatal(err)
		}
		if seed == "" {
			seed = s.Addr()
		}
		servers = append(servers, s)
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
	})
	// Join broadcasts are asynchronous; wait briefly for convergence.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, s := range servers {
			if s.RingSize() != n {
				all = false
			}
		}
		if all {
			return servers, seed
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Heal any missed broadcasts through explicit ring pulls before
	// giving up.
	for _, s := range servers {
		if s.RingSize() != n {
			t.Fatalf("ring did not converge: node %s sees %d of %d", s.Addr(), s.RingSize(), n)
		}
	}
	return servers, seed
}

func TestRingFormation(t *testing.T) {
	servers, _ := startRing(t, 5, 1<<30)
	for _, s := range servers {
		if s.RingSize() != 5 {
			t.Fatalf("node sees ring of %d", s.RingSize())
		}
	}
}

func TestStoreFetchRoundTrip(t *testing.T) {
	_, seed := startRing(t, 6, 1<<30)
	c, err := NewClientCfg(context.Background(), seed, erasure.MustXOR(2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 300_000)
	rng.Read(data)
	cat, err := c.StoreFileCtx(context.Background(), "live.dat", data)
	if err != nil {
		t.Fatal(err)
	}
	if cat.FileSize() != int64(len(data)) {
		t.Fatalf("CAT size %d", cat.FileSize())
	}
	got, err := c.FetchFileCtx(context.Background(), "live.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("live round trip mismatch")
	}
}

func TestFetchRange(t *testing.T) {
	_, seed := startRing(t, 4, 1<<30)
	c, err := NewClientCfg(context.Background(), seed, erasure.NewNull(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(strings.Repeat("0123456789", 5000))
	if _, err := c.StoreFileCtx(context.Background(), "r.dat", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.FetchRangeCtx(context.Background(), "r.dat", 11111, 222)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[11111:11333]) {
		t.Fatal("range mismatch")
	}
}

func TestBlocksSpreadAcrossNodes(t *testing.T) {
	servers, seed := startRing(t, 8, 1<<30)
	c, err := NewClientCfg(context.Background(), seed, erasure.NewNull(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 6; i++ {
		data := make([]byte, 50_000)
		rng.Read(data)
		if _, err := c.StoreFileCtx(context.Background(), "spread"+string(rune('a'+i))+".dat", data); err != nil {
			t.Fatal(err)
		}
	}
	holders := 0
	for _, s := range servers {
		if s.NumBlocks() > 0 {
			holders++
		}
	}
	if holders < 3 {
		t.Fatalf("blocks concentrated on %d of 8 nodes", holders)
	}
}

func TestCapacityRefusal(t *testing.T) {
	_, seed := startRing(t, 3, 10_000) // tiny nodes
	c, err := NewClientCfg(context.Background(), seed, erasure.NewNull(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 200_000)
	if _, err := c.StoreFileCtx(context.Background(), "toobig.dat", big); err == nil {
		t.Fatal("store succeeded beyond total ring capacity")
	}
}

func TestSurvivesNodeLossWithCoding(t *testing.T) {
	servers, seed := startRing(t, 8, 1<<30)
	c, err := NewClientCfg(context.Background(), seed, erasure.MustXOR(2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 120_000)
	rng.Read(data)
	// Kill the node holding the most blocks of the file among those
	// holding no two blocks of one chunk: (2,3) coding plus CAT replicas
	// must keep the file retrievable when no chunk loses two blocks.
	// Placement follows the random node IDs; a file whose every holder
	// carries two blocks of a chunk is set aside and the next one stored.
	var (
		victim *Server
		name   string
		most   int
	)
	for i := 0; victim == nil && i < 8; i++ {
		name = fmt.Sprintf("hardy%d.dat", i)
		if _, err := c.StoreFileCtx(context.Background(), name, data); err != nil {
			t.Fatal(err)
		}
		for _, s := range servers {
			held, perChunk := chunkBlocks(s, name)
			if held > most && perChunk == 1 {
				victim, most = s, held
			}
		}
	}
	if victim == nil {
		t.Fatal("every stored file had two blocks of a chunk on each of its holders")
	}
	victim.Close()
	// The client's view still lists the dead node; refresh against a
	// live seed and retry (stale-cache handling, §5).
	liveSeed := ""
	for _, s := range servers {
		if s != victim {
			liveSeed = s.Addr()
			break
		}
	}
	c2, err := NewClientCfg(context.Background(), liveSeed, erasure.MustXOR(2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.FetchFileCtx(context.Background(), name)
	if err != nil {
		t.Fatalf("file unretrievable after losing one block per chunk: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("post-failure fetch mismatch")
	}
}

// chunkBlocks counts the coded blocks of file that s holds, and the
// most it holds of any one chunk.
func chunkBlocks(s *Server, file string) (held, perChunk int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	byChunk := map[int]int{}
	for n := range s.blocks {
		if f, chunk, _, ok := core.ParseBlockName(n); ok && f == file {
			held++
			byChunk[chunk]++
			perChunk = max(perChunk, byChunk[chunk])
		}
	}
	return held, perChunk
}

func TestClientImplementsGridFS(t *testing.T) {
	_, seed := startRing(t, 4, 1<<30)
	c, err := NewClientCfg(context.Background(), seed, erasure.NewNull(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var _ grid.FS = c // compile-time interface check

	codec := &core.Codec{Code: erasure.NewNull()}
	lib := grid.NewIOLib(c, codec)
	lib.PlanChunk = func(sz int64) []int64 { return core.PlanChunkSizes(sz, 30_000) }

	fd, err := lib.Create("via-iolib.dat")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("grid-io"), 10_000)
	if _, err := lib.Write(fd, payload); err != nil {
		t.Fatal(err)
	}
	if err := lib.Close(fd); err != nil {
		t.Fatal(err)
	}
	rfd, err := lib.Open("via-iolib.dat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := lib.ReadAt(rfd, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("IOLib over live ring mismatch")
	}
}

func TestOwnerOfAgreesWithDistance(t *testing.T) {
	ring := []wire.NodeInfo{
		{ID: ids.FromUint64(100)},
		{ID: ids.FromUint64(200)},
		{ID: ids.FromUint64(300)},
	}
	o, err := OwnerOf(ring, ids.FromUint64(190))
	if err != nil {
		t.Fatal(err)
	}
	if o.ID != ids.FromUint64(200) {
		t.Fatalf("owner = %s", o.ID.Short())
	}
	if _, err := OwnerOf(nil, ids.FromUint64(1)); err == nil {
		t.Fatal("empty ring accepted")
	}
}

func TestStatAndDelete(t *testing.T) {
	servers, seed := startRing(t, 2, 1<<20)
	c, err := NewClientCfg(context.Background(), seed, erasure.NewNull(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StoreFileCtx(context.Background(), "s.dat", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	totalUsed := int64(0)
	for _, s := range servers {
		cap, used, _, err := c.StatCtx(context.Background(), s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if cap != 1<<20 {
			t.Fatalf("stat capacity = %d", cap)
		}
		totalUsed += used
	}
	if totalUsed == 0 {
		t.Fatal("nothing stored according to stat")
	}
	// Direct delete of the data block frees space.
	bn := core.BlockName("s.dat", 0, 0)
	owner, _ := OwnerOf(c.Ring(), ids.FromName(bn))
	if _, err := rpc(owner.Addr, &wire.Request{Op: wire.OpDelete, Name: bn}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchFileCtx(context.Background(), "s.dat"); err == nil {
		t.Fatal("fetch succeeded after block deletion under null coding")
	}
}

func TestClientRepairRestoresRedundancy(t *testing.T) {
	_, seed := startRing(t, 8, 1<<30)
	c, err := NewClientCfg(context.Background(), seed, erasure.MustXOR(2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 150_000)
	rng.Read(data)
	cat, err := c.StoreFileCtx(context.Background(), "repair.dat", data)
	if err != nil {
		t.Fatal(err)
	}
	// Delete one block of chunk 0 directly from its owner.
	bn := core.BlockName("repair.dat", 0, 1)
	owner, _ := OwnerOf(c.Ring(), ids.FromName(bn))
	if _, err := rpc(owner.Addr, &wire.Request{Op: wire.OpDelete, Name: bn}); err != nil {
		t.Fatal(err)
	}
	st, err := c.RepairCtx(context.Background(), "repair.dat")
	if err != nil {
		t.Fatal(err)
	}
	if st.BlocksMissing == 0 || st.BlocksRecreated == 0 {
		t.Fatalf("repair found/recreated nothing: %+v", st)
	}
	if st.ChunksLost != 0 {
		t.Fatalf("repair lost chunks: %+v", st)
	}
	if st.ChunksScanned != cat.NumChunks() {
		t.Fatalf("scanned %d chunks, want %d", st.ChunksScanned, cat.NumChunks())
	}
	// The recreated block exists again and the file round-trips.
	if _, err := c.FetchBlock(bn); err != nil {
		t.Fatal("recreated block not fetchable")
	}
	got, err := c.FetchFileCtx(context.Background(), "repair.dat")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatal("post-repair fetch mismatch")
	}
	// A second pass finds nothing to do.
	st2, err := c.RepairCtx(context.Background(), "repair.dat")
	if err != nil {
		t.Fatal(err)
	}
	if st2.BlocksMissing != 0 || st2.BlocksRecreated != 0 {
		t.Fatalf("idempotence violated: %+v", st2)
	}
}

func TestClientRepairRestoresCATReplica(t *testing.T) {
	_, seed := startRing(t, 5, 1<<30)
	c, err := NewClientCfg(context.Background(), seed, erasure.NewNull(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StoreFileCtx(context.Background(), "catfix.dat", []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	rn := core.ReplicaName(core.CATName("catfix.dat"), 1)
	owner, _ := OwnerOf(c.Ring(), ids.FromName(rn))
	if _, err := rpc(owner.Addr, &wire.Request{Op: wire.OpDelete, Name: rn}); err != nil {
		t.Fatal(err)
	}
	st, err := c.RepairCtx(context.Background(), "catfix.dat")
	if err != nil {
		t.Fatal(err)
	}
	if st.CATReplicasRecreated != 1 {
		t.Fatalf("CAT replicas recreated = %d", st.CATReplicasRecreated)
	}
}

// TestWireFrameRoundTrip carries a request and its reply through the
// frame codec both ways, over the pool and server loop a node speaks:
// the stored bytes come back unchanged, including zero and 0xff bytes.
func TestWireFrameRoundTrip(t *testing.T) {
	_, seed := startRing(t, 1, 1<<20)
	data := []byte{0, 1, 2, 3, 255}
	resp, err := rpc(seed, &wire.Request{Op: wire.OpStore, Name: "n", Data: data})
	if err != nil || !resp.OK {
		t.Fatalf("store: %+v, %v", resp, err)
	}
	got, err := rpc(seed, &wire.Request{Op: wire.OpFetch, Name: "n"})
	if err != nil {
		t.Fatal(err)
	}
	if !got.OK || !bytes.Equal(got.Data, data) {
		t.Fatalf("frame round trip mismatch: %+v", got)
	}
}

func TestUnknownOp(t *testing.T) {
	_, seed := startRing(t, 1, 1<<20)
	if _, err := rpc(seed, &wire.Request{Op: "bogus"}); err == nil {
		t.Fatal("a request with an op the node does not know was accepted")
	}
}
