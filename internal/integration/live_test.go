package integration

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
	"peerstripe/internal/ids"
	"peerstripe/internal/node"
	"peerstripe/internal/wire"
)

// startLiveRing forms an N-node in-process TCP ring with
// deterministic, evenly spaced identifiers, so block placement is a
// pure function of the file names and victim selection is stable run
// to run. It waits for the membership broadcasts to converge.
func startLiveRing(t testing.TB, n int, capacity int64) ([]*node.Server, string) {
	t.Helper()
	var servers []*node.Server
	seed := ""
	for i := 0; i < n; i++ {
		var id ids.ID
		id[0] = byte(i * 256 / n)
		s, err := node.NewServerID("127.0.0.1:0", id, capacity, seed)
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
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		converged := true
		for _, s := range servers {
			if s.RingSize() != n {
				converged = false
			}
		}
		if converged {
			return servers, seed
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("live ring did not converge")
	return nil, ""
}

// liveSafeVictim picks a ring member whose loss every chunk of every
// file survives (at most tolerance blocks of any chunk, and at least
// one CAT replica of each file elsewhere). Deterministic given the
// fixed server IDs and file names.
func liveSafeVictim(ring []wire.NodeInfo, files map[string]int, m, tolerance, catReplicas int) int {
	ownerIdx := func(name string) int {
		o, _ := node.OwnerOf(ring, ids.FromName(name))
		for i, member := range ring {
			if member.ID == o.ID {
				return i
			}
		}
		return -1
	}
	for cand := range ring {
		ok := true
		for file, chunks := range files {
			for ci := 0; ci < chunks && ok; ci++ {
				held := 0
				for e := 0; e < m; e++ {
					if ownerIdx(core.BlockName(file, ci, e)) == cand {
						held++
					}
				}
				if held > tolerance {
					ok = false
				}
			}
			elsewhere := 0
			for r := 0; r <= catReplicas; r++ {
				if ownerIdx(core.ReplicaName(core.CATName(file), r)) != cand {
					elsewhere++
				}
			}
			if elsewhere == 0 {
				ok = false
			}
			if !ok {
				break
			}
		}
		if ok {
			return cand
		}
	}
	return -1
}

func newLiveClient(t testing.TB, seed string, code erasure.Code) *node.Client {
	return newLiveClientCfg(t, seed, code, node.Config{})
}

func newLiveClientCfg(t testing.TB, seed string, code erasure.Code, cfg node.Config) *node.Client {
	t.Helper()
	if cfg.ChunkCap == 0 {
		cfg.ChunkCap = 32 << 10
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 3 * time.Second
	}
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = 30 * time.Millisecond
	}
	c, err := node.NewClientCfg(context.Background(), seed, code, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestLiveIntegrationConcurrentChurnRepair is the full live-path
// harness: concurrent clients store and fetch over a 9-node ring while
// a node is killed mid-transfer; reads must keep returning exact bytes
// (degraded path), writes may fail but must never corrupt; Repair then
// re-creates the lost blocks on the survivors and every byte is
// re-verified. Designed to run under -race: every transfer, the server
// pipeline, and the hedged fetch machinery race against the kill.
func TestLiveIntegrationConcurrentChurnRepair(t *testing.T) {
	const (
		nodes    = 9
		chunkCap = 32 << 10
		fileSize = 320 << 10 // 10 chunks at the cap
	)
	code := erasure.MustXOR(2)
	servers, seed := startLiveRing(t, nodes, 1<<30)

	// Pre-store three files; three more are written during the churn.
	preFiles := []string{"pre-0.dat", "pre-1.dat", "pre-2.dat"}
	churnFiles := []string{"churn-0.dat", "churn-1.dat", "churn-2.dat"}
	payload := make(map[string][]byte)
	rng := rand.New(rand.NewSource(11))
	for _, f := range append(append([]string{}, preFiles...), churnFiles...) {
		data := make([]byte, fileSize)
		rng.Read(data)
		payload[f] = data
	}

	writer := newLiveClient(t, seed, code)
	for _, f := range preFiles {
		if _, err := writer.StoreFileCtx(context.Background(), f, payload[f]); err != nil {
			t.Fatal(err)
		}
	}

	// Victim choice covers the files not yet written too — placement
	// is deterministic, so the to-be-stored blocks are known.
	chunks := int((fileSize + chunkCap - 1) / chunkCap)
	fileChunks := make(map[string]int)
	for f := range payload {
		fileChunks[f] = chunks
	}
	victim := liveSafeVictim(writer.Ring(), fileChunks,
		code.EncodedBlocks(), code.EncodedBlocks()-code.MinNeeded(), node.CATReplicas)
	if victim < 0 {
		t.Fatal("no safe victim in deterministic placement")
	}
	victimID := writer.Ring()[victim].ID
	var victimSrv *node.Server
	for _, s := range servers {
		if s.ID == victimID {
			victimSrv = s
		}
	}
	if victimSrv == nil {
		t.Fatal("victim server not found")
	}

	// Concurrent readers, writers, and the killer.
	var wg sync.WaitGroup
	fetchErrs := make(chan error, 64)
	storeOK := make([]bool, len(churnFiles))
	start := make(chan struct{})

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := newLiveClient(t, seed, code)
			<-start
			for i := 0; i < 6; i++ {
				f := preFiles[(r+i)%len(preFiles)]
				got, err := c.FetchFileCtx(context.Background(), f)
				if err != nil {
					fetchErrs <- fmt.Errorf("reader %d, %s: %w", r, f, err)
					return
				}
				if !bytes.Equal(got, payload[f]) {
					fetchErrs <- fmt.Errorf("reader %d, %s: wrong bytes", r, f)
					return
				}
			}
		}(r)
	}
	for w := range churnFiles {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newLiveClient(t, seed, code)
			<-start
			// Writes racing the kill may fail; they must never
			// corrupt. Success is recorded and verified later.
			if _, err := c.StoreFileCtx(context.Background(), churnFiles[w], payload[churnFiles[w]]); err == nil {
				storeOK[w] = true
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		time.Sleep(20 * time.Millisecond) // mid-transfer
		victimSrv.Close()
	}()

	close(start)
	wg.Wait()
	close(fetchErrs)
	for err := range fetchErrs {
		t.Errorf("concurrent fetch during churn: %v", err)
	}

	// Survivor view: the membership protocol has no failure detector,
	// so repair first sheds the dead member (the paper's "current
	// owners after a failure" are exactly the pruned view).
	rc := writer
	dropped, err := rc.PruneRingCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 || rc.RingSize() != nodes-1 {
		t.Fatalf("prune dropped %d members, ring now %d", dropped, rc.RingSize())
	}

	verify := append([]string{}, preFiles...)
	for w, ok := range storeOK {
		if ok {
			verify = append(verify, churnFiles[w])
		}
	}
	if len(verify) == len(preFiles) {
		t.Log("no churn-phase store completed; repair covers the pre-stored files only")
	}
	recreated := 0
	for _, f := range verify {
		st, err := rc.RepairCtx(context.Background(), f)
		if err != nil {
			t.Fatalf("repair %s: %v", f, err)
		}
		if st.ChunksLost != 0 {
			t.Fatalf("repair %s lost %d chunks — victim selection broken", f, st.ChunksLost)
		}
		recreated += st.BlocksRecreated
	}
	if recreated == 0 {
		t.Error("repair re-created no blocks although a node died")
	}
	for _, f := range verify {
		got, err := rc.FetchFileCtx(context.Background(), f)
		if err != nil {
			t.Fatalf("post-repair fetch %s: %v", f, err)
		}
		if !bytes.Equal(got, payload[f]) {
			t.Fatalf("post-repair bytes of %s differ", f)
		}
	}
}

// TestLiveDegradedFetchNoRepair is the acceptance-criterion case in
// isolation: one node down, no Repair, no ring refresh — FetchFile on
// a client whose view still lists the dead node returns exact bytes.
func TestLiveDegradedFetchNoRepair(t *testing.T) {
	code := erasure.MustXOR(2)
	servers, seed := startLiveRing(t, 8, 1<<30)
	c := newLiveClient(t, seed, code)

	const name = "degraded-norpr.dat"
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(21)).Read(data)
	cat, err := c.StoreFileCtx(context.Background(), name, data)
	if err != nil {
		t.Fatal(err)
	}
	victim := liveSafeVictim(c.Ring(), map[string]int{name: cat.NumChunks()},
		code.EncodedBlocks(), code.EncodedBlocks()-code.MinNeeded(), node.CATReplicas)
	if victim < 0 {
		t.Fatal("no safe victim in deterministic placement")
	}
	victimID := c.Ring()[victim].ID
	for _, s := range servers {
		if s.ID == victimID {
			s.Close()
		}
	}
	got, err := c.FetchFileCtx(context.Background(), name)
	if err != nil {
		t.Fatalf("degraded fetch with one node down: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded fetch bytes differ")
	}
}

// TestLiveStoreFailsCleanlyWhenRingDies ensures a store racing a
// full-ring shutdown surfaces an error instead of wedging: the pooled
// transport must fail over, time out, and report.
func TestLiveStoreFailsCleanlyWhenRingDies(t *testing.T) {
	code := erasure.MustXOR(2)
	servers, seed := startLiveRing(t, 4, 1<<30)
	c := newLiveClientCfg(t, seed, code, node.Config{Timeout: 500 * time.Millisecond})

	data := make([]byte, 128<<10)
	rand.New(rand.NewSource(41)).Read(data)
	done := make(chan error, 1)
	go func() {
		_, err := c.StoreFileCtx(context.Background(), "doomed.dat", data)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	for _, s := range servers {
		s.Close()
	}
	select {
	case err := <-done:
		if err == nil {
			// The store may have finished before the shutdown; that
			// is a legal interleaving, not a failure.
			t.Log("store completed before ring shutdown")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("store wedged after ring shutdown")
	}
	if _, err := c.FetchFileCtx(context.Background(), "doomed.dat"); err == nil {
		t.Fatal("fetch succeeded against a dead ring")
	}
}
