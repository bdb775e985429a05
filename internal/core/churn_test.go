package core_test

import (
	"testing"

	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
	"peerstripe/internal/ids"
	"peerstripe/internal/sim"
	"peerstripe/internal/trace"
)

// victimWithBlocks returns a node ID holding at least one file block.
func victimWithBlocks(t *testing.T, s *sim.Store) ids.ID {
	t.Helper()
	var victim ids.ID
	found := false
	_ = found
	for _, on := range s.Pool.Net.Nodes() {
		sn, _ := s.Pool.Node(on.ID)
		for name := range sn.Blocks {
			if _, _, _, ok := core.ParseBlockName(name); ok {
				return on.ID
			}
		}
	}
	t.Fatal("no node holds a file block")
	return victim
}

func TestFailNodeNoRepairMarksUnavailable(t *testing.T) {
	s := newStore(t, 20, caps(30, 2*trace.GB), sim.DefaultConfig()) // no coding
	res := s.StoreFile("f", 5*trace.GB)
	if !res.OK {
		t.Fatal(res.Err)
	}
	// Without coding, losing any block kills the file.
	id := victimWithBlocks(t, s)
	rep, err := s.FailNode(id, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksLost == 0 {
		t.Fatal("victim reported no lost blocks")
	}
	if rep.FilesLost != 1 || s.Available("f") {
		t.Fatalf("file should be unavailable: rep=%+v", rep)
	}
	if rep.DataUnrecoverable == 0 {
		t.Fatal("no data charged as unrecoverable")
	}
}

func TestFailNodeWithCodingSurvivesOneLoss(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Spec = erasure.XOR23Spec
	s := newStore(t, 21, caps(40, 2*trace.GB), cfg)
	res := s.StoreFile("f", 3*trace.GB)
	if !res.OK {
		t.Fatal(res.Err)
	}
	id := victimWithBlocks(t, s)
	rep, err := s.FailNode(id, false)
	if err != nil {
		t.Fatal(err)
	}
	// One node holds at most one block of any chunk with overwhelming
	// probability (distinct names hash apart); a single loss per chunk
	// is tolerated by (2,3).
	if rep.FilesLost != 0 {
		t.Fatalf("file lost despite XOR coding: %+v", rep)
	}
	if !s.Available("f") {
		t.Fatal("file unavailable after tolerable loss")
	}
}

func TestFailNodeWithRepairRegenerates(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Spec = erasure.XOR23Spec
	s := newStore(t, 22, caps(40, 2*trace.GB), cfg)
	if res := s.StoreFile("f", 3*trace.GB); !res.OK {
		t.Fatal(res.Err)
	}
	id := victimWithBlocks(t, s)
	rep, err := s.FailNode(id, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksRegenerated == 0 {
		t.Fatalf("repair regenerated nothing: %+v", rep)
	}
	if rep.BytesRegenerated == 0 {
		t.Fatal("repair bytes not accounted")
	}
	// After repair, every chunk is back at full strength: a second
	// failure of any single node is still tolerable.
	id2 := victimWithBlocks(t, s)
	rep2, err := s.FailNode(id2, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.FilesLost != 0 {
		t.Fatal("file lost on second isolated failure after repair")
	}
	if !s.Available("f") {
		t.Fatal("file unavailable after repaired failures")
	}
}

func TestRatelessRepairUsesFreshNames(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Spec = erasure.OnlineSimSpec
	cfg.Rateless = true
	s := newStore(t, 23, caps(40, 2*trace.GB), cfg)
	if res := s.StoreFile("f", 2*trace.GB); !res.OK {
		t.Fatal(res.Err)
	}
	id := victimWithBlocks(t, s)
	rep, err := s.FailNode(id, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksRegenerated == 0 {
		t.Fatalf("rateless repair regenerated nothing: %+v", rep)
	}
	// Fresh block names beyond the original m must now exist somewhere.
	fresh := false
	for _, on := range s.Pool.Net.Nodes() {
		sn, _ := s.Pool.Node(on.ID)
		for name := range sn.Blocks {
			if _, _, ecb, ok := core.ParseBlockName(name); ok && ecb >= erasure.OnlineSimSpec.TotalBlocks {
				fresh = true
			}
		}
	}
	if !fresh {
		t.Fatal("no fresh-named replacement blocks found")
	}
}

func TestCATReplicaRecreation(t *testing.T) {
	s := newStore(t, 24, caps(40, 2*trace.GB), sim.DefaultConfig())
	if res := s.StoreFile("f", 1*trace.GB); !res.OK {
		t.Fatal(res.Err)
	}
	// Find a node holding a CAT replica and fail it with repair.
	var victim ids.ID
	found := false
	for _, on := range s.Pool.Net.Nodes() {
		sn, _ := s.Pool.Node(on.ID)
		for name := range sn.Blocks {
			if _, _, ok := core.IsCATName(name); ok {
				victim, found = on.ID, true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no core.CAT replica found")
	}
	rep, err := s.FailNode(victim, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CATReplicasLost == 0 || rep.CATReplicasRecreated == 0 {
		t.Fatalf("core.CAT replica churn not handled: %+v", rep)
	}
}

func TestChurnSimBasic(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Spec = erasure.XOR23Spec
	s := newStore(t, 25, caps(400, 2*trace.GB), cfg)
	g := trace.NewGen(26)
	for i, f := range g.Files(40) {
		_ = i
		s.StoreFile(f.Name, f.Size)
	}
	// Generous repair bandwidth: repairs finish between failures.
	cs := sim.NewChurnSim(s, 1e12, 1.0)
	rng := g.Rand()
	failed := 0
	for failed < 6 {
		nodes := s.Pool.Net.Nodes()
		id := nodes[rng.Intn(len(nodes))].ID
		if err := cs.FailNext(id); err != nil {
			t.Fatal(err)
		}
		failed++
	}
	cs.Drain()
	if cs.Backlog() != 0 {
		t.Fatalf("backlog = %d after drain", cs.Backlog())
	}
	if cs.TotalRegenerated == 0 {
		t.Fatal("churn regenerated nothing")
	}
	if len(cs.PerFailureRegen) != 6 {
		t.Fatalf("per-failure records = %d", len(cs.PerFailureRegen))
	}
	// With 400 nodes, distinct block names land on distinct nodes with
	// high probability, so isolated repaired failures should lose (at
	// most a rare co-located chunk of) data.
	if cs.TotalLost > s.BytesStored/20 {
		t.Fatalf("fast repair lost %d of %d bytes", cs.TotalLost, s.BytesStored)
	}
}

func TestChurnSimSlowRepairLosesData(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Spec = erasure.XOR23Spec
	s := newStore(t, 27, caps(50, 2*trace.GB), cfg)
	g := trace.NewGen(28)
	for _, f := range g.Files(40) {
		s.StoreFile(f.Name, f.Size)
	}
	// Glacial repair: almost nothing completes between failures, so
	// sustained churn must eventually defeat the single-loss tolerance.
	cs := sim.NewChurnSim(s, 1, 1.0)
	rng := g.Rand()
	for i := 0; i < 25; i++ {
		nodes := s.Pool.Net.Nodes()
		if len(nodes) == 0 {
			break
		}
		if err := cs.FailNext(nodes[rng.Intn(len(nodes))].ID); err != nil {
			t.Fatal(err)
		}
	}
	if cs.TotalLost == 0 {
		t.Fatal("50% churn with no effective repair lost no data — model broken")
	}
	if cs.Now() <= 0 {
		t.Fatal("simulated time did not advance")
	}
}
