package core_test

import (
	"fmt"
	"testing"

	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
	"peerstripe/internal/ids"
	"peerstripe/internal/sim"
	"peerstripe/internal/trace"
)

func TestStoreZeroSizeFile(t *testing.T) {
	s := newStore(t, 40, caps(10, trace.GB), sim.DefaultConfig())
	res := s.StoreFile("empty", 0)
	if !res.OK {
		t.Fatalf("zero-size store failed: %v", res.Err)
	}
	if res.Chunks != 0 {
		t.Fatalf("zero-size file has %d chunks", res.Chunks)
	}
	cat, ok := s.CAT("empty")
	if !ok || cat.FileSize() != 0 {
		t.Fatal("zero-size core.CAT wrong")
	}
	// Retrieval of nothing succeeds trivially.
	st, err := s.Retrieve("empty", 0, 0)
	if err != nil || st.Chunks != 0 {
		t.Fatalf("zero-size retrieve: %+v, %v", st, err)
	}
}

func TestRetrieveBeyondEOFTouchesNothing(t *testing.T) {
	s := newStore(t, 41, caps(20, trace.GB), sim.DefaultConfig())
	if res := s.StoreFile("f", 100*trace.MB); !res.OK {
		t.Fatal(res.Err)
	}
	st, err := s.Retrieve("f", 200*trace.MB, 10)
	if err != nil {
		t.Fatalf("out-of-range retrieve errored: %v", err)
	}
	if st.Chunks != 0 || st.BlockFetches != 0 {
		t.Fatalf("out-of-range retrieve touched chunks: %+v", st)
	}
}

func TestFailNodeWithoutBlocks(t *testing.T) {
	s := newStore(t, 42, caps(30, trace.GB), sim.DefaultConfig())
	// Find a node with no blocks (pool is empty, so any node).
	id := s.Pool.Net.Nodes()[0].ID
	rep, err := s.FailNode(id, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksLost != 0 || rep.BytesRegenerated != 0 {
		t.Fatalf("empty node failure produced work: %+v", rep)
	}
}

func TestFailUnknownNodeErrors(t *testing.T) {
	s := newStore(t, 43, caps(5, trace.GB), sim.DefaultConfig())
	if _, err := s.FailNode(ids.FromName("never-joined"), false); err == nil {
		t.Fatal("failure of a node that never existed accepted")
	}
}

// TestFailNodeRepeatIsIdempotent: churn schedules (and the live repair
// daemon the simulator models) can deliver the same death twice. The
// first FailNode accounts the loss; the repeat must be a no-op with a
// zero FailureReport, not an error and not double accounting.
func TestFailNodeRepeatIsIdempotent(t *testing.T) {
	s := newStore(t, 43, caps(8, trace.GB), sim.DefaultConfig())
	if res := s.StoreFile("repeat.dat", 20*trace.MB); !res.OK {
		t.Fatal(res.Err)
	}
	// Fail a node that holds at least one block, so the repeat has
	// something it could double-count.
	var victim ids.ID
	s.Pool.Nodes(func(n *sim.StoreNode) {
		if len(n.Blocks) > 0 {
			victim = n.Overlay.ID
		}
	})
	first, err := s.FailNode(victim, true)
	if err != nil {
		t.Fatal(err)
	}
	if first.BlocksLost == 0 {
		t.Fatal("victim selection found no blocks")
	}
	lostBefore, rawBefore := s.FilesLost, s.BytesLostRaw
	again, err := s.FailNode(victim, true)
	if err != nil {
		t.Fatalf("repeated failure errored: %v", err)
	}
	if again != (sim.FailureReport{}) {
		t.Fatalf("repeated failure re-accounted: %+v", again)
	}
	if s.FilesLost != lostBefore || s.BytesLostRaw != rawBefore {
		t.Fatal("repeated failure moved aggregate accounting")
	}
}

// TestFailNodeCascadeCATAndChunkLoss pins the combined cascade: the
// failed node holds both a CAT replica of a file and the file's only
// copy of a chunk's data (NullSpec: one block per chunk, so its loss
// drops the chunk below the decode threshold). The chunk loss must be
// accounted (unrecoverable chunk, file lost, retrieval refused) while
// the CAT replica is still re-created on a survivor — metadata healing
// and data-loss accounting never block each other.
func TestFailNodeCascadeCATAndChunkLoss(t *testing.T) {
	s := newStore(t, 47, caps(6, trace.GB), sim.DefaultConfig())
	holderOf := func(name string) (id ids.ID, found bool) {
		s.Pool.Nodes(func(n *sim.StoreNode) {
			if _, ok := n.Blocks[name]; ok {
				id, found = n.Overlay.ID, true
			}
		})
		return id, found
	}
	var file string
	var victim ids.ID
	for i := 0; i < 256 && file == ""; i++ {
		name := fmt.Sprintf("cascade-%d.dat", i)
		res := s.StoreFile(name, 10*trace.MB)
		if !res.OK || res.Chunks != 1 {
			continue
		}
		blockHolder, ok := holderOf(core.BlockName(name, 0, 0))
		if !ok {
			t.Fatalf("stored block of %s not found in pool", name)
		}
		for r := 0; r <= s.Cfg.CATReplicas; r++ {
			if h, ok := holderOf(core.ReplicaName(core.CATName(name), r)); ok && h == blockHolder {
				file, victim = name, blockHolder
				break
			}
		}
	}
	if file == "" {
		t.Fatal("no file whose chunk block and core.CAT replica collide — placement changed?")
	}

	rep, err := s.FailNode(victim, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksUnrecoverable == 0 || rep.FilesLost == 0 {
		t.Fatalf("chunk below threshold not accounted: %+v", rep)
	}
	if rep.CATReplicasLost == 0 {
		t.Fatalf("core.CAT replica loss not accounted: %+v", rep)
	}
	if rep.CATReplicasRecreated == 0 {
		t.Fatalf("core.CAT replica not re-created despite surviving space: %+v", rep)
	}
	if _, err := s.Retrieve(file, 0, 10*trace.MB); err == nil {
		t.Fatal("retrieval of a file with an unrecoverable chunk succeeded")
	}
}

func TestLossOfForeignBlocksIgnored(t *testing.T) {
	// Blocks not belonging to any indexed file (e.g. from another
	// store instance) must not corrupt accounting.
	s := newStore(t, 44, caps(30, trace.GB), sim.DefaultConfig())
	n := s.Pool.StoreBlock("alien_7_1", 5*trace.MB)
	if n == nil {
		t.Fatal("alien store failed")
	}
	rep, err := s.FailNode(n.Overlay.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilesLost != 0 || rep.BlocksRegenerated != 0 {
		t.Fatalf("alien block affected the store: %+v", rep)
	}
}

func TestRawBytesMatchesPoolUsage(t *testing.T) {
	for _, spec := range []erasure.Spec{erasure.NullSpec, erasure.XOR23Spec, erasure.OnlineSimSpec} {
		cfg := sim.DefaultConfig()
		cfg.Spec = spec
		s := newStore(t, 45, caps(60, 2*trace.GB), cfg)
		var raw int64
		g := trace.NewGen(46)
		for _, f := range g.Files(30) {
			if res := s.StoreFile(f.Name, f.Size); res.OK {
				raw += res.RawBytes
			}
		}
		if raw != s.Pool.TotalUsed {
			t.Fatalf("%s: RawBytes sum %d != pool TotalUsed %d", spec.Name, raw, s.Pool.TotalUsed)
		}
	}
}

func TestRetrieveStatsScaleWithCoding(t *testing.T) {
	// MinNeeded block fetches per chunk: XOR(2,3) fetches 2 blocks per
	// chunk; no coding fetches 1.
	base := newStore(t, 47, caps(40, 2*trace.GB), sim.DefaultConfig())
	coded := func() *sim.Store {
		cfg := sim.DefaultConfig()
		cfg.Spec = erasure.XOR23Spec
		return newStore(t, 47, caps(40, 2*trace.GB), cfg)
	}()
	if res := base.StoreFile("f", trace.GB); !res.OK {
		t.Fatal(res.Err)
	}
	if res := coded.StoreFile("f", trace.GB); !res.OK {
		t.Fatal(res.Err)
	}
	a, err := base.Retrieve("f", 0, trace.GB)
	if err != nil {
		t.Fatal(err)
	}
	b, err := coded.Retrieve("f", 0, trace.GB)
	if err != nil {
		t.Fatal(err)
	}
	if b.BlockFetches != 2*a.BlockFetches*b.Chunks/a.Chunks/1 && b.BlockFetches < a.BlockFetches {
		t.Fatalf("coded fetches %d not above uncoded %d", b.BlockFetches, a.BlockFetches)
	}
	if perChunkA, perChunkB := a.BlockFetches/a.Chunks, b.BlockFetches/b.Chunks; perChunkA != 1 || perChunkB != 2 {
		t.Fatalf("fetches per chunk: %d and %d, want 1 and 2", perChunkA, perChunkB)
	}
}

func TestDeleteFileReleasesEverything(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Spec = erasure.XOR23Spec
	s := newStore(t, 49, caps(50, 2*trace.GB), cfg)
	res := s.StoreFile("del", 3*trace.GB)
	if !res.OK {
		t.Fatal(res.Err)
	}
	usedBefore := s.Pool.TotalUsed
	released, err := s.DeleteFile("del")
	if err != nil {
		t.Fatal(err)
	}
	if released != res.RawBytes {
		t.Fatalf("released %d, stored raw %d", released, res.RawBytes)
	}
	if s.Pool.TotalUsed != usedBefore-released {
		t.Fatal("pool accounting inconsistent after delete")
	}
	if s.Pool.TotalUsed != 0 {
		t.Fatalf("pool still holds %d bytes", s.Pool.TotalUsed)
	}
	if s.NumFiles() != 0 || s.Available("del") {
		t.Fatal("file still indexed after delete")
	}
	if _, err := s.DeleteFile("del"); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestDeleteFileAfterRatelessRepair(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Spec = erasure.OnlineSimSpec
	cfg.Rateless = true
	s := newStore(t, 50, caps(60, 2*trace.GB), cfg)
	if res := s.StoreFile("rr", 2*trace.GB); !res.OK {
		t.Fatal(res.Err)
	}
	// Cause a repair so fresh-named blocks exist.
	var victim = s.Pool.Net.Nodes()[0].ID
	for _, on := range s.Pool.Net.Nodes() {
		if sn, ok := s.Pool.Node(on.ID); ok && len(sn.Blocks) > 0 {
			victim = on.ID
			break
		}
	}
	if _, err := s.FailNode(victim, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteFile("rr"); err != nil {
		t.Fatal(err)
	}
	// Nothing of the file may remain anywhere.
	s.Pool.Nodes(func(n *sim.StoreNode) {
		for name := range n.Blocks {
			if f, _, _, ok := core.ParseBlockName(name); ok && f == "rr" {
				t.Fatalf("leftover block %s", name)
			}
			if f, _, ok := core.IsCATName(name); ok && f == "rr" {
				t.Fatalf("leftover core.CAT %s", name)
			}
		}
	})
}

func TestChurnSimDrainIdempotent(t *testing.T) {
	s := newStore(t, 48, caps(20, trace.GB), sim.DefaultConfig())
	cs := sim.NewChurnSim(s, 1e9, 1.0)
	cs.Drain()
	cs.Drain()
	if cs.Backlog() != 0 {
		t.Fatal("drain on empty queue broke state")
	}
}
