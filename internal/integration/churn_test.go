package integration

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
	"peerstripe/internal/ids"
	"peerstripe/internal/node"
	"peerstripe/internal/wire"
)

// The churn harness: a self-healing ring survives a scripted sequence
// of node deaths with zero manual intervention. Every node runs the
// SWIM-style failure detector and the autonomous repair daemon; the
// test kills safe victims one by one and only ever OBSERVES — no
// Repair, no PruneRing, no ring edits. The durability SLO under test:
// as long as each single death stays within the code tolerance, no
// file is lost, and the ring returns to full redundancy on its own.
//
// Scale is environment-tunable so CI's race runs can shrink it:
//
//	PS_CHURN_NODES — ring size (default 50)
//	PS_CHURN_KILLS — scripted deaths (default 3)

func churnEnvInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// churnTrace is the precomputed kill schedule: placement is a pure
// function of the deterministic node IDs and file names, so the safe
// victim of every step is known before the ring even starts — the
// harness replays the trace against the live ring.
type churnTrace struct {
	victims []int // indices into the original server slice, in kill order
}

// planChurnTrace simulates the kill sequence over the placement rings:
// at each step it collects every member whose loss all files survive
// (at most tolerance blocks of any chunk, one CAT replica elsewhere)
// and lets the seeded RNG pick among them. spare is excluded — the
// harness forges a suspicion about it later, so it must stay alive.
func planChurnTrace(t *testing.T, ring []wire.NodeInfo, fileChunks map[string]int,
	m, tolerance, catReplicas, kills, spare int, rng *rand.Rand) churnTrace {
	t.Helper()
	idx := make(map[ids.ID]int, len(ring))
	for i, n := range ring {
		idx[n.ID] = i
	}
	cur := append([]wire.NodeInfo(nil), ring...)
	var trace churnTrace
	for k := 0; k < kills; k++ {
		var safe []int
		for pos, member := range cur {
			if idx[member.ID] == spare {
				continue
			}
			if churnVictimSafe(cur, pos, fileChunks, m, tolerance, catReplicas) {
				safe = append(safe, pos)
			}
		}
		if len(safe) == 0 {
			t.Fatalf("churn step %d: no safe victim in deterministic placement", k)
		}
		pos := safe[rng.Intn(len(safe))]
		trace.victims = append(trace.victims, idx[cur[pos].ID])
		cur = append(cur[:pos], cur[pos+1:]...)
	}
	return trace
}

// churnVictimSafe reports whether losing ring[pos] keeps every chunk of
// every file decodable and at least one CAT replica of each file on a
// survivor, under the given placement ring.
func churnVictimSafe(ring []wire.NodeInfo, pos int, fileChunks map[string]int, m, tolerance, catReplicas int) bool {
	ownerIdx := func(name string) int {
		o, _ := node.OwnerOf(ring, ids.FromName(name))
		for i, member := range ring {
			if member.ID == o.ID {
				return i
			}
		}
		return -1
	}
	for file, chunks := range fileChunks {
		for ci := 0; ci < chunks; ci++ {
			held := 0
			for e := 0; e < m; e++ {
				if ownerIdx(core.BlockName(file, ci, e)) == pos {
					held++
				}
			}
			if held > tolerance {
				return false
			}
		}
		elsewhere := 0
		for r := 0; r <= catReplicas; r++ {
			if ownerIdx(core.ReplicaName(core.CATName(file), r)) != pos {
				elsewhere++
			}
		}
		if elsewhere == 0 {
			return false
		}
	}
	return true
}

// blockNames lists every stored object of the files: all encoded blocks
// of every non-empty chunk plus all CAT replicas. Full redundancy means
// every one of these is fetchable at its current owner.
func blockNames(fileChunks map[string]int, m, catReplicas int) []string {
	var names []string
	for file, chunks := range fileChunks {
		for ci := 0; ci < chunks; ci++ {
			for e := 0; e < m; e++ {
				names = append(names, core.BlockName(file, ci, e))
			}
		}
		for r := 0; r <= catReplicas; r++ {
			names = append(names, core.ReplicaName(core.CATName(file), r))
		}
	}
	return names
}

func TestChurnSelfHealingRing(t *testing.T) {
	nodes := churnEnvInt("PS_CHURN_NODES", 50)
	kills := churnEnvInt("PS_CHURN_KILLS", 3)
	if nodes < 8 || nodes > 256 {
		t.Fatalf("PS_CHURN_NODES=%d outside the supported 8..256", nodes)
	}
	if kills >= nodes/2 {
		t.Fatalf("PS_CHURN_KILLS=%d too aggressive for %d nodes", kills, nodes)
	}
	const (
		chunkCap = 32 << 10
		fileSize = 192 << 10 // 6 chunks at the cap
		numFiles = 6
	)
	code := erasure.MustXOR(2)
	// Probe cadence is deliberately gentle: the whole ring shares one
	// machine (often one core, under -race), and 50 detectors probing
	// aggressively would starve the very traffic they monitor.
	det := &node.DetectorConfig{
		ProbeInterval:    250 * time.Millisecond,
		ProbeTimeout:     500 * time.Millisecond,
		IndirectProbes:   3,
		SuspicionTimeout: 1500 * time.Millisecond,
		GossipFanout:     3,
	}
	rep := &node.RepairConfig{
		Code:        code,
		Rate:        -1, // unmetered: the harness measures correctness, not pacing
		RetryDelay:  200 * time.Millisecond,
		MaxAttempts: 10,
		Client:      node.Config{Timeout: 2 * time.Second, ChunkCap: chunkCap},
	}

	// Self-healing ring: deterministic IDs, seed join, detector and
	// repair daemon on every node.
	servers := make([]*node.Server, nodes)
	seed := ""
	for i := 0; i < nodes; i++ {
		var id ids.ID
		id[0] = byte(i * 256 / nodes)
		s, err := node.NewServerOpts("127.0.0.1:0", 1<<30, seed, node.ServerOptions{
			ID: &id, Detector: det, Repair: rep,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		servers[i] = s
		if seed == "" {
			seed = s.Addr()
		}
	}
	waitChurn(t, 120*time.Second, "membership to converge", func() bool {
		for _, s := range servers {
			if s.RingSize() != nodes {
				return false
			}
		}
		return true
	})

	// Store the working set.
	writer := newLiveClientCfg(t, seed, code, node.Config{ChunkCap: chunkCap})
	payload := make(map[string][]byte)
	fileChunks := make(map[string]int)
	dataRNG := rand.New(rand.NewSource(7))
	for i := 0; i < numFiles; i++ {
		name := fmt.Sprintf("churn-slo-%d.dat", i)
		data := make([]byte, fileSize)
		dataRNG.Read(data)
		payload[name] = data
		cat, err := writer.StoreFileCtx(context.Background(), name, data)
		if err != nil {
			t.Fatal(err)
		}
		fileChunks[name] = cat.NumChunks()
	}
	m := code.EncodedBlocks()
	tolerance := m - code.MinNeeded()

	// One live node is reserved for the forged-suspicion probe below;
	// the trace never kills it.
	spare := nodes / 2
	trace := planChurnTrace(t, writer.Ring(), fileChunks, m, tolerance, node.CATReplicas,
		kills, spare, rand.New(rand.NewSource(43)))
	t.Logf("churn trace over %d nodes: kill order %v", nodes, trace.victims)

	byID := make(map[ids.ID]int, nodes)
	for i, s := range servers {
		byID[s.ID] = i
	}
	aliveRing := func(dead map[int]bool) []wire.NodeInfo {
		var ring []wire.NodeInfo
		for i, s := range servers {
			if !dead[i] {
				ring = append(ring, wire.NodeInfo{ID: s.ID, Addr: s.Addr()})
			}
		}
		return ring
	}

	names := blockNames(fileChunks, m, node.CATReplicas)
	dead := make(map[int]bool)
	for step, victim := range trace.victims {
		servers[victim].Close()
		dead[victim] = true
		victimID := servers[victim].ID

		// Phase 1: every survivor commits the death on its own — no
		// manual prune anywhere.
		waitChurn(t, 60*time.Second, fmt.Sprintf("step %d: death of node %d to commit", step, victim), func() bool {
			for i, s := range servers {
				if dead[i] {
					continue
				}
				if st, ok := s.MemberState(victimID); !ok || st != wire.StateDead {
					return false
				}
				if s.RingSize() != nodes-len(dead) {
					return false
				}
			}
			return true
		})

		// Phase 2: the repair daemons restore full redundancy — every
		// block of every file fetchable at its survivor-ring owner.
		vc := node.NewStaticClientCfg(aliveRing(dead), code, node.Config{Timeout: 2 * time.Second})
		waitChurn(t, 120*time.Second, fmt.Sprintf("step %d: autonomous repair to converge", step), func() bool {
			for _, bn := range names {
				if _, err := vc.FetchBlock(bn); err != nil {
					return false
				}
			}
			return true
		})
		vc.Close()
	}

	// Forged suspicion at scale: a live member is falsely accused; it
	// must refute (incarnation rises) and never be evicted.
	forged := wire.EncodeUpdates([]wire.MemberUpdate{{
		Node:  wire.NodeInfo{ID: servers[spare].ID, Addr: servers[spare].Addr()},
		State: wire.StateSuspect,
		Inc:   servers[spare].Incarnation(),
	}})
	gp := wire.NewPool()
	resp, err := gp.CallCtx(context.Background(), seed, &wire.Request{Op: wire.OpGossip, Data: forged}, 0)
	gp.Close()
	if err != nil {
		t.Fatal(err)
	}
	resp.Release()
	waitChurn(t, 30*time.Second, "forged suspicion to be refuted", func() bool {
		return servers[spare].Incarnation() >= 1
	})
	watch := time.Now().Add(2 * det.SuspicionTimeout)
	for time.Now().Before(watch) {
		for i, s := range servers {
			if dead[i] {
				continue
			}
			if st, ok := s.MemberState(servers[spare].ID); ok && st == wire.StateDead {
				t.Fatalf("node %d evicted the falsely suspected live node", i)
			}
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Final SLO accounting. Every file reads back byte-exact through a
	// fresh client that only knows the survivors; no repair daemon gave
	// up on a file; no chunk ever fell below the decode threshold.
	final := node.NewStaticClientCfg(aliveRing(dead), code, node.Config{Timeout: 3 * time.Second, ChunkCap: chunkCap})
	defer final.Close()
	for name, want := range payload {
		got, err := final.FetchFileCtx(context.Background(), name)
		if err != nil {
			t.Fatalf("final fetch %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("final bytes of %s differ", name)
		}
	}
	totalBlocks, totalBytes := 0, int64(0)
	for i, s := range servers {
		if dead[i] {
			continue
		}
		rpt := s.RepairReport()
		totalBlocks += rpt.BlocksRecreated
		totalBytes += rpt.BytesRecreated
		if rpt.FilesFailed != 0 {
			t.Errorf("node %d gave up on %d files", i, rpt.FilesFailed)
		}
		if rpt.ChunksLost != 0 {
			t.Errorf("node %d saw %d chunks below the decode threshold", i, rpt.ChunksLost)
		}
		if s.RingSize() != nodes-len(dead) {
			t.Errorf("node %d ring size %d, want %d", i, s.RingSize(), nodes-len(dead))
		}
	}
	if totalBlocks == 0 || totalBytes == 0 {
		t.Fatalf("no autonomous repair work recorded: %d blocks, %d bytes", totalBlocks, totalBytes)
	}
	t.Logf("churn SLO held: %d deaths, %d blocks (%d bytes) regenerated autonomously",
		len(trace.victims), totalBlocks, totalBytes)
}

// waitChurn polls cond until it holds or the deadline passes.
func waitChurn(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
