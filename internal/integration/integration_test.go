// Package integration exercises whole-system paths across modules: the
// simulated store over the real overlay, availability accounting checked
// against brute-force ground truth, and the full §6.4 stack (scheduler →
// interposed I/O → codec → live TCP ring).
package integration

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"peerstripe"
	"peerstripe/internal/baseline"
	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
	"peerstripe/internal/grid"
	"peerstripe/internal/node"
	"peerstripe/internal/sim"
	"peerstripe/internal/trace"
)

// TestAvailabilityMatchesBruteForce cross-checks the incremental
// survivor accounting in the simulated store against a from-scratch scan of every
// block's presence in the pool.
func TestAvailabilityMatchesBruteForce(t *testing.T) {
	g := trace.NewGen(1)
	pool := sim.NewPool(1, g.NodeCapacities(200))
	cfg := sim.DefaultConfig()
	cfg.Spec = erasure.XOR23Spec
	st := sim.NewStore(pool, cfg)

	type fileInfo struct {
		name   string
		chunks int
	}
	var stored []fileInfo
	for _, f := range g.Files(150) {
		if res := st.StoreFile(f.Name, f.Size); res.OK {
			stored = append(stored, fileInfo{f.Name, res.Chunks + res.ZeroChunks})
		}
	}
	if len(stored) < 100 {
		t.Fatalf("only %d files stored", len(stored))
	}

	// Fail 25% of nodes without repair.
	rng := g.Rand()
	for i := 0; i < 50; i++ {
		nodes := pool.Net.Nodes()
		if _, err := st.FailNode(nodes[rng.Intn(len(nodes))].ID, false); err != nil {
			t.Fatal(err)
		}
	}

	// Brute force: a file is available iff every non-empty chunk still
	// has >= MinNeeded blocks present somewhere in the pool.
	present := func(name string) bool {
		found := false
		pool.Nodes(func(n *sim.StoreNode) {
			if n.Has(name) {
				found = true
			}
		})
		return found
	}
	for _, fi := range stored {
		cat, ok := st.CAT(fi.name)
		if !ok {
			t.Fatalf("no CAT for %s", fi.name)
		}
		avail := true
		for ci, row := range cat.Rows {
			if row.Empty() {
				continue
			}
			alive := 0
			for e := 0; e < cfg.Spec.TotalBlocks; e++ {
				if present(core.BlockName(fi.name, ci, e)) {
					alive++
				}
			}
			if alive < cfg.Spec.MinNeeded {
				avail = false
				break
			}
		}
		if got := st.Available(fi.name); got != avail {
			t.Fatalf("%s: Available()=%v, brute force=%v", fi.name, got, avail)
		}
	}
}

// TestThreeSchemesOnSharedWorkload runs the §6.1 comparison end-to-end
// at miniature scale and asserts the qualitative claims: PeerStripe
// fails least, uses the most capacity, and creates far fewer chunks
// than CFS.
func TestThreeSchemesOnSharedWorkload(t *testing.T) {
	g := trace.NewGen(2)
	capacities := g.NodeCapacities(120)
	files := g.Files(120 * 120)

	poolP := sim.NewPool(2, capacities)
	past := baseline.NewPAST(poolP)
	for _, f := range files {
		past.StoreFile(f.Name, f.Size)
	}

	poolC := sim.NewPool(2, capacities)
	cfs := baseline.NewCFS(poolC, 4*trace.MB)
	for _, f := range files {
		cfs.StoreFile(f.Name, f.Size)
	}

	poolO := sim.NewPool(2, capacities)
	ours := sim.NewStore(poolO, sim.DefaultConfig())
	var chunkAcc float64
	var chunkN int
	for _, f := range files {
		if res := ours.StoreFile(f.Name, f.Size); res.OK {
			chunkAcc += float64(res.Chunks)
			chunkN++
		}
	}

	if ours.FilesFailed >= past.FilesFailed {
		t.Errorf("PeerStripe failed %d files, PAST %d — expected fewer", ours.FilesFailed, past.FilesFailed)
	}
	if ours.FilesFailed >= cfs.FilesFailed {
		t.Errorf("PeerStripe failed %d files, CFS %d — expected fewer", ours.FilesFailed, cfs.FilesFailed)
	}
	if poolO.Utilization() <= poolP.Utilization() {
		t.Errorf("PeerStripe utilization %.3f not above PAST %.3f", poolO.Utilization(), poolP.Utilization())
	}
	meanChunks := chunkAcc / float64(chunkN)
	cfsChunks := float64(cfs.TotalBlocks) / float64(cfs.FilesStored)
	if meanChunks*4 > cfsChunks {
		t.Errorf("chunk counts: ours %.1f vs CFS %.1f — expected ≥4x fewer", meanChunks, cfsChunks)
	}
}

// TestFullGridStackOverLiveRing drives the complete implementation
// stack of §5/§6.4: a Condor-like scheduler executes bigCopy jobs whose
// I/O is interposed and redirected to a live TCP ring, with erasure
// coding on the wire.
func TestFullGridStackOverLiveRing(t *testing.T) {
	var servers []*node.Server
	seed := ""
	for i := 0; i < 6; i++ {
		s, err := node.NewServer("127.0.0.1:0", 64<<20, seed)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if seed == "" {
			seed = s.Addr()
		}
		servers = append(servers, s)
	}
	client, err := peerstripe.Dial(context.Background(), seed,
		peerstripe.WithCode("xor"), peerstripe.WithChunkCap(512<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Seed an input file directly through the client.
	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(3)).Read(data)
	if _, err := client.StoreBytes(context.Background(), "input.bin", data); err != nil {
		t.Fatal(err)
	}

	lib := grid.NewIOLib(client)
	sched := grid.NewScheduler(lib, 3)
	for i := 0; i < 4; i++ {
		sched.Submit(grid.BigCopyJob("input.bin", fmt.Sprintf("copy%d.bin", i), 256<<10))
	}
	for _, r := range sched.Drain() {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.Job, r.Err)
		}
	}
	// Verify one copy through an independent client.
	c2, err := node.NewClientCfg(context.Background(), servers[2].Addr(), erasure.MustXOR(2), node.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.FetchFileCtx(context.Background(), "copy2.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("copy through full stack mismatch")
	}
	// Blocks really live on the ring.
	totalBlocks := 0
	for _, s := range servers {
		totalBlocks += s.NumBlocks()
	}
	if totalBlocks < 10 {
		t.Fatalf("only %d blocks on the ring", totalBlocks)
	}
}

// TestRepairKeepsFilesRetrievableUnderChurn runs repeated fail+repair
// rounds and verifies Retrieve still succeeds for available files and
// agrees with Available.
func TestRepairKeepsFilesRetrievableUnderChurn(t *testing.T) {
	g := trace.NewGen(4)
	pool := sim.NewPool(4, g.NodeCapacities(250))
	cfg := sim.DefaultConfig()
	cfg.Spec = erasure.OnlineSimSpec
	cfg.Rateless = true
	st := sim.NewStore(pool, cfg)
	var names []string
	for _, f := range g.Files(200) {
		if st.StoreFile(f.Name, f.Size).OK {
			names = append(names, f.Name)
		}
	}
	rng := g.Rand()
	for round := 0; round < 40; round++ {
		nodes := pool.Net.Nodes()
		if _, err := st.FailNode(nodes[rng.Intn(len(nodes))].ID, true); err != nil {
			t.Fatal(err)
		}
	}
	availCount := 0
	for _, n := range names {
		if st.Available(n) {
			availCount++
			if _, err := st.Retrieve(n, 0, 1); err != nil {
				t.Fatalf("available file %s not retrievable: %v", n, err)
			}
		} else if _, err := st.Retrieve(n, 0, 1); err == nil {
			t.Fatalf("unavailable file %s retrieved", n)
		}
	}
	// With tolerance 2 and immediate repair, the vast majority must
	// survive 16% churn.
	if float64(availCount) < 0.95*float64(len(names)) {
		t.Fatalf("only %d/%d files survived churn with repair", availCount, len(names))
	}
}

// TestCodecMatchesSimulatedPlacement stores a real file with chunk
// sizes taken from a simulated capacity-probed store, proving the two
// layers agree on naming and structure.
func TestCodecMatchesSimulatedPlacement(t *testing.T) {
	g := trace.NewGen(5)
	pool := sim.NewPool(5, g.NodeCapacities(80))
	st := sim.NewStore(pool, sim.DefaultConfig())
	const size = 3 << 20
	res := st.StoreFile("real.dat", size)
	if !res.OK {
		t.Fatal(res.Err)
	}
	simCAT, _ := st.CAT("real.dat")

	// Reuse the simulated chunk layout for real bytes.
	var sizes []int64
	for _, row := range simCAT.Rows {
		sizes = append(sizes, row.Len())
	}
	data := make([]byte, size)
	rand.New(rand.NewSource(6)).Read(data)
	codec := &core.Codec{Code: erasure.NewNull()}
	blocks, codecCAT, err := codec.EncodeFile(context.Background(), "real.dat", data, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if codecCAT.FileSize() != simCAT.FileSize() || codecCAT.NumChunks() != simCAT.NumChunks() {
		t.Fatal("codec CAT disagrees with simulated CAT")
	}
	// Every block name the codec produced maps to a node that the
	// simulated store actually placed a block of the same name on.
	for _, b := range blocks {
		owner := pool.OwnerOf(b.Name)
		if owner == nil || !owner.Has(b.Name) {
			t.Fatalf("block %s not where the simulation placed it", b.Name)
		}
	}
}
