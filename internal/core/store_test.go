package core_test

import (
	"errors"
	"testing"

	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
	"peerstripe/internal/sim"
	"peerstripe/internal/trace"
)

func caps(n int, each int64) []int64 {
	cs := make([]int64, n)
	for i := range cs {
		cs[i] = each
	}
	return cs
}

func newStore(t testing.TB, seed int64, nodeCaps []int64, cfg sim.Config) *sim.Store {
	t.Helper()
	return sim.NewStore(sim.NewPool(seed, nodeCaps), cfg)
}

func TestStoreFileBasic(t *testing.T) {
	s := newStore(t, 1, caps(100, 10*trace.GB), sim.DefaultConfig())
	res := s.StoreFile("bigfile", 30*trace.GB)
	if !res.OK {
		t.Fatalf("store failed: %v", res.Err)
	}
	if res.Chunks < 3 {
		t.Fatalf("30 GB across 10 GB nodes needs >= 3 chunks, got %d", res.Chunks)
	}
	if res.LogicalBytes != 30*trace.GB {
		t.Fatalf("LogicalBytes = %d", res.LogicalBytes)
	}
	cat, ok := s.CAT("bigfile")
	if !ok {
		t.Fatal("core.CAT missing")
	}
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	if cat.FileSize() != 30*trace.GB {
		t.Fatalf("core.CAT records %d bytes", cat.FileSize())
	}
	if !s.Available("bigfile") {
		t.Fatal("stored file not available")
	}
}

func TestStoreFileLargerThanAnyNode(t *testing.T) {
	// The headline capability (§4.1): a file bigger than every
	// individual node still stores.
	s := newStore(t, 2, caps(50, 2*trace.GB), sim.DefaultConfig())
	res := s.StoreFile("huge", 20*trace.GB)
	if !res.OK {
		t.Fatalf("store failed: %v", res.Err)
	}
	var maxChunk int64
	for _, c := range res.ChunkSizes {
		if c > maxChunk {
			maxChunk = c
		}
	}
	if maxChunk > 2*trace.GB {
		t.Fatalf("chunk of %d exceeds node capacity", maxChunk)
	}
}

func TestChunkSizesTrackCapacity(t *testing.T) {
	s := newStore(t, 3, caps(20, 5*trace.GB), sim.DefaultConfig())
	res := s.StoreFile("f", 8*trace.GB)
	if !res.OK {
		t.Fatal(res.Err)
	}
	// First chunk should take (close to) a full node's advertised
	// capacity under the whole-capacity reporting policy.
	if res.ChunkSizes[0] < 4*trace.GB {
		t.Fatalf("first chunk only %d bytes with 5 GB free nodes", res.ChunkSizes[0])
	}
}

func TestStoreDuplicateRejected(t *testing.T) {
	s := newStore(t, 4, caps(10, trace.GB), sim.DefaultConfig())
	if res := s.StoreFile("dup", 100*trace.MB); !res.OK {
		t.Fatal(res.Err)
	}
	if res := s.StoreFile("dup", 100*trace.MB); res.OK || res.Err == nil {
		t.Fatal("duplicate store accepted")
	}
}

func TestStoreFailsWhenPoolFull(t *testing.T) {
	s := newStore(t, 5, caps(6, 100*trace.MB), sim.DefaultConfig())
	// Fill the pool.
	for i := 0; i < 10; i++ {
		s.StoreFile(trace.File{Name: "", Size: 0}.Name, 0)
		break
	}
	r1 := s.StoreFile("filler", 350*trace.MB)
	if !r1.OK {
		t.Fatalf("filler store failed early: %v", r1.Err)
	}
	r2 := s.StoreFile("toolarge", 400*trace.MB) // exceeds the ~250 MB left
	if r2.OK {
		t.Fatal("store succeeded in an exhausted pool")
	}
	if !errors.Is(r2.Err, core.ErrStoreFailed) {
		t.Fatalf("err = %v, want ErrStoreFailed", r2.Err)
	}
	if s.FilesFailed != 1 || s.BytesFailed != 400*trace.MB {
		t.Fatalf("failure accounting: files=%d bytes=%d", s.FilesFailed, s.BytesFailed)
	}
}

func TestFailedStoreRollsBack(t *testing.T) {
	s := newStore(t, 6, caps(5, 100*trace.MB), sim.DefaultConfig())
	usedBefore := s.Pool.TotalUsed
	res := s.StoreFile("giant", 10*trace.GB) // cannot possibly fit
	if res.OK {
		t.Fatal("impossible store succeeded")
	}
	if s.Pool.TotalUsed != usedBefore {
		t.Fatalf("rollback incomplete: used %d -> %d", usedBefore, s.Pool.TotalUsed)
	}
	if s.Available("giant") {
		t.Fatal("failed file reported available")
	}
}

func TestZeroChunksRecorded(t *testing.T) {
	// One node with space, rest full: most chunk probes hit full nodes
	// and must produce zero-sized chunks before landing.
	capsMixed := caps(30, 64*trace.MB)
	s := newStore(t, 7, capsMixed, sim.DefaultConfig())
	stored, zeros := 0, 0
	for i := 0; i < 40; i++ {
		res := s.StoreFile(trace.NewGen(int64(i)).Files(1)[0].Name+string(rune('a'+i%26))+string(rune('0'+i/26)), 50*trace.MB)
		if res.OK {
			stored++
			zeros += res.ZeroChunks
		}
	}
	if stored == 0 {
		t.Fatal("nothing stored")
	}
	if zeros == 0 {
		t.Log("no zero chunks observed; pool never saturated enough — acceptable but unexpected")
	}
}

func TestStoreWithXORCoding(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Spec = erasure.XOR23Spec
	s := newStore(t, 8, caps(60, 2*trace.GB), cfg)
	res := s.StoreFile("coded", 10*trace.GB)
	if !res.OK {
		t.Fatal(res.Err)
	}
	// (2,3) coding stores 1.5x the data plus the CAT copies.
	minRaw := res.LogicalBytes * 3 / 2
	if res.RawBytes < minRaw || res.RawBytes > minRaw+minRaw/10 {
		t.Fatalf("RawBytes = %d, want ≈%d", res.RawBytes, minRaw)
	}
}

func TestRetrieveWholeAndRange(t *testing.T) {
	s := newStore(t, 9, caps(50, 2*trace.GB), sim.DefaultConfig())
	res := s.StoreFile("r", 5*trace.GB)
	if !res.OK {
		t.Fatal(res.Err)
	}
	whole, err := s.Retrieve("r", 0, 5*trace.GB)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Chunks != res.Chunks {
		t.Fatalf("whole retrieve touched %d chunks, stored %d", whole.Chunks, res.Chunks)
	}
	if whole.Bytes < 5*trace.GB {
		t.Fatalf("whole retrieve fetched %d bytes", whole.Bytes)
	}
	// A small range touches a strict subset of chunks (§4.1).
	part, err := s.Retrieve("r", 10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if part.Chunks != 1 {
		t.Fatalf("1 KB range touched %d chunks", part.Chunks)
	}
	if part.Bytes >= whole.Bytes {
		t.Fatal("partial retrieve not cheaper than whole")
	}
}

func TestRetrieveErrors(t *testing.T) {
	s := newStore(t, 10, caps(10, trace.GB), sim.DefaultConfig())
	if _, err := s.Retrieve("ghost", 0, 1); err == nil {
		t.Fatal("retrieve of unknown file succeeded")
	}
}

func TestRecreateCAT(t *testing.T) {
	s := newStore(t, 11, caps(50, 2*trace.GB), sim.DefaultConfig())
	res := s.StoreFile("rc", 5*trace.GB)
	if !res.OK {
		t.Fatal(res.Err)
	}
	orig, _ := s.CAT("rc")
	rebuilt, lookups, err := s.RecreateCAT("rc")
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.FileSize() != orig.FileSize() {
		t.Fatalf("rebuilt size %d, want %d", rebuilt.FileSize(), orig.FileSize())
	}
	if lookups < orig.NumChunks() {
		t.Fatalf("lookups = %d, below chunk count %d", lookups, orig.NumChunks())
	}
	// Bounded by chunks + limit + 1 probes.
	if lookups > orig.NumChunks()+s.Cfg.MaxZeroChunks+1 {
		t.Fatalf("lookups = %d, want <= chunks+limit+1", lookups)
	}
}

func TestPlanChunkSizes(t *testing.T) {
	sizes := core.PlanChunkSizes(10, 4)
	want := []int64{4, 4, 2}
	if len(sizes) != 3 {
		t.Fatalf("sizes = %v", sizes)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
	if core.PlanChunkSizes(0, 4) != nil {
		t.Fatal("zero file should plan no chunks")
	}
	if got := core.PlanChunkSizes(7, 0); len(got) != 1 || got[0] != 7 {
		t.Fatal("uncapped plan should be one chunk")
	}
}

func TestMaxChunkSizePolicy(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.MaxChunkSize = 512 * trace.MB
	s := newStore(t, 12, caps(30, 10*trace.GB), cfg)
	res := s.StoreFile("capped", 3*trace.GB)
	if !res.OK {
		t.Fatal(res.Err)
	}
	for _, c := range res.ChunkSizes {
		if c > 512*trace.MB {
			t.Fatalf("chunk %d exceeds the 512 MB policy cap", c)
		}
	}
	if res.Chunks < 6 {
		t.Fatalf("3 GB at 512 MB cap should need >= 6 chunks, got %d", res.Chunks)
	}
}

func TestReportFractionSlowsChunks(t *testing.T) {
	full := newStore(t, 13, caps(30, 10*trace.GB), sim.DefaultConfig())
	frac := newStore(t, 13, caps(30, 10*trace.GB), sim.DefaultConfig())
	frac.Pool.SetReportFraction(0.25)
	a := full.StoreFile("f", 8*trace.GB)
	b := frac.StoreFile("f", 8*trace.GB)
	if !a.OK || !b.OK {
		t.Fatal("stores failed")
	}
	if b.Chunks <= a.Chunks {
		t.Fatalf("fractional reporting should create more chunks: %d vs %d", b.Chunks, a.Chunks)
	}
}

func TestPaperConfigReproducesTable1Chunking(t *testing.T) {
	// Under the calibrated §6.1 configuration a 243 MB mean file splits
	// into ~3 chunks averaging ~81 MB — the paper's Table 1 row.
	s := newStore(t, 15, caps(100, 45*trace.GB), sim.PaperConfig())
	g := trace.NewGen(16)
	var chunks, sizes []float64
	for _, f := range g.Files(300) {
		res := s.StoreFile(f.Name, f.Size)
		if !res.OK {
			t.Fatalf("store failed on an empty pool: %v", res.Err)
		}
		chunks = append(chunks, float64(res.Chunks))
		for _, cs := range res.ChunkSizes {
			sizes = append(sizes, float64(cs)/float64(trace.MB))
		}
	}
	var cAcc, sAcc float64
	for _, c := range chunks {
		cAcc += c
	}
	for _, s := range sizes {
		sAcc += s
	}
	meanChunks := cAcc / float64(len(chunks))
	meanSize := sAcc / float64(len(sizes))
	if meanChunks < 2.5 || meanChunks > 4.5 {
		t.Errorf("mean chunks/file = %.2f, paper Table 1 says 3.72", meanChunks)
	}
	if meanSize < 70 || meanSize > 95 {
		t.Errorf("mean chunk size = %.1f MB, paper Table 1 says 81.28", meanSize)
	}
}

func TestFilesAccessors(t *testing.T) {
	s := newStore(t, 14, caps(20, trace.GB), sim.DefaultConfig())
	s.StoreFile("a", 10*trace.MB)
	s.StoreFile("b", 10*trace.MB)
	if s.NumFiles() != 2 || len(s.Files()) != 2 {
		t.Fatalf("NumFiles = %d", s.NumFiles())
	}
}
