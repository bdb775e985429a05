package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"peerstripe/internal/erasure"
)

// memFetch builds a concurrent-safe FetchFunc over an in-memory block
// map with a per-name failure set.
type memFetch struct {
	mu     sync.Mutex
	blocks map[string][]byte
	dead   map[string]bool
	calls  atomic.Int64
	delay  func(name string) time.Duration
}

func newMemFetch(t *testing.T, code erasure.Code, file string, data []byte, chunkSizes []int64) (*memFetch, *CAT) {
	t.Helper()
	codec := &Codec{Code: code}
	blocks, cat, err := codec.EncodeFile(context.Background(), file, data, chunkSizes)
	if err != nil {
		t.Fatal(err)
	}
	mf := &memFetch{blocks: make(map[string][]byte), dead: make(map[string]bool)}
	for _, b := range blocks {
		mf.blocks[b.Name] = b.Data
	}
	return mf, cat
}

func (mf *memFetch) fetch(name string) ([]byte, bool) {
	mf.calls.Add(1)
	if mf.delay != nil {
		time.Sleep(mf.delay(name))
	}
	mf.mu.Lock()
	defer mf.mu.Unlock()
	if mf.dead[name] {
		return nil, false
	}
	d, ok := mf.blocks[name]
	return d, ok
}

func (mf *memFetch) kill(name string) {
	mf.mu.Lock()
	mf.dead[name] = true
	mf.mu.Unlock()
}

// TestParallelFetchMatchesSequential decodes the same file through the
// sequential and hedged-parallel paths under random block failures
// (within tolerance) and requires identical bytes.
func TestParallelFetchMatchesSequential(t *testing.T) {
	code := erasure.MustXOR(2)
	data := make([]byte, 300_000)
	rand.New(rand.NewSource(1)).Read(data)
	sizes := PlanChunkSizes(int64(len(data)), 40_000)
	mf, cat := newMemFetch(t, code, "par.dat", data, sizes)

	// Kill one block per chunk — the code's exact tolerance.
	rng := rand.New(rand.NewSource(2))
	for ci := range cat.Rows {
		mf.kill(BlockName("par.dat", ci, rng.Intn(code.EncodedBlocks())))
	}

	seq := &Codec{Code: code, Workers: 1}
	want, err := seq.DecodeFile(context.Background(), cat, mf.fetch)
	if err != nil {
		t.Fatal(err)
	}
	par := &Codec{Code: code, Workers: 4, FetchParallel: 4, HedgeDelay: 10 * time.Millisecond}
	got, err := par.DecodeFile(context.Background(), cat, mf.fetch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) || !bytes.Equal(got, data) {
		t.Fatal("parallel decode differs from sequential")
	}
}

// TestParallelFetchFailsBeyondTolerance kills both blocks the decode
// needs in one chunk and requires a clean ErrUnavailable, not a hang.
func TestParallelFetchFailsBeyondTolerance(t *testing.T) {
	code := erasure.MustXOR(2)
	data := make([]byte, 100_000)
	rand.New(rand.NewSource(3)).Read(data)
	sizes := PlanChunkSizes(int64(len(data)), 30_000)
	mf, cat := newMemFetch(t, code, "gone.dat", data, sizes)
	mf.kill(BlockName("gone.dat", 1, 0))
	mf.kill(BlockName("gone.dat", 1, 1))

	par := &Codec{Code: code, Workers: 4, FetchParallel: 4, HedgeDelay: 5 * time.Millisecond}
	if _, err := par.DecodeFile(context.Background(), cat, mf.fetch); err == nil {
		t.Fatal("decode succeeded with a chunk beyond tolerance")
	}
}

// TestParallelFetchStopsEarly verifies the happy path does not fan out
// to every block: with no failures and a generous hedge delay, each
// chunk should touch MinNeeded blocks, not all m.
func TestParallelFetchStopsEarly(t *testing.T) {
	code := erasure.MustRS(4, 4) // m = 8, need = 4
	data := make([]byte, 64_000)
	rand.New(rand.NewSource(4)).Read(data)
	sizes := PlanChunkSizes(int64(len(data)), 64_000)
	mf, cat := newMemFetch(t, code, "early.dat", data, sizes)

	par := &Codec{Code: code, FetchParallel: 8, HedgeDelay: 5 * time.Second}
	got, err := par.DecodeFile(context.Background(), cat, mf.fetch)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatal(err)
	}
	if calls := mf.calls.Load(); calls > int64(code.MinNeeded()) {
		t.Fatalf("happy-path decode touched %d blocks, want <= %d", calls, code.MinNeeded())
	}
}

// TestProgressHedgeReplacesSilentSource pins the mid-stream half of
// the hedged read: a source that reported progress once and then went
// silent — no error, no bytes, connection alive — is counted as a
// laggard at the next hedge tick and raced with a replacement, so the
// decode completes from the other holders instead of waiting the
// silent stream out.
func TestProgressHedgeReplacesSilentSource(t *testing.T) {
	code := erasure.MustXOR(2) // m = 3, need = 2: first wave is blocks 0, 1
	data := make([]byte, 40_000)
	rand.New(rand.NewSource(6)).Read(data)
	sizes := PlanChunkSizes(int64(len(data)), 40_000)
	mf, cat := newMemFetch(t, code, "silent.dat", data, sizes)

	release := make(chan struct{})
	defer close(release)
	var fetched sync.Map
	par := &Codec{Code: code, FetchParallel: 4, HedgeDelay: 20 * time.Millisecond}
	par.Fetch = perBlock(func(name string, progress func(int)) ([]byte, Releaser, bool) {
		fetched.Store(name, true)
		if name == BlockName("silent.dat", 0, 0) {
			progress(512) // a head's worth of bytes, then silence
			<-release
			return nil, nil, false
		}
		d, ok := mf.fetch(name)
		if ok {
			progress(len(d))
		}
		return d, nil, ok
	})

	startT := time.Now()
	got, err := par.DecodeFile(context.Background(), cat, mf.fetch)
	elapsed := time.Since(startT)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatal(err)
	}
	if elapsed < 20*time.Millisecond {
		t.Fatalf("decode finished in %v — the silent source was never on the critical path", elapsed)
	}
	if elapsed > time.Second {
		t.Fatalf("decode took %v; the silent source was waited out, not raced", elapsed)
	}
	if _, ok := fetched.Load(BlockName("silent.dat", 0, 2)); !ok {
		t.Fatal("replacement block was never requested — decode succeeded some other way")
	}
}

// TestProgressHedgeSparesMovingSource is the other half of the
// per-source progress contract: a source that is slow but moving —
// fresh bytes before every hedge tick — must be left alone, with no
// replacement launched, so a merely-slow cluster is not stampeded by
// redundant reads.
func TestProgressHedgeSparesMovingSource(t *testing.T) {
	code := erasure.MustXOR(2)
	data := make([]byte, 40_000)
	rand.New(rand.NewSource(7)).Read(data)
	sizes := PlanChunkSizes(int64(len(data)), 40_000)
	mf, cat := newMemFetch(t, code, "moving.dat", data, sizes)

	var launches atomic.Int64
	par := &Codec{Code: code, FetchParallel: 4, HedgeDelay: 25 * time.Millisecond}
	par.Fetch = perBlock(func(name string, progress func(int)) ([]byte, Releaser, bool) {
		launches.Add(1)
		if name == BlockName("moving.dat", 0, 0) {
			// ~150ms total — six hedge periods — but bytes trickle in
			// every 5ms, so every tick sees progress.
			for i := 0; i < 30; i++ {
				time.Sleep(5 * time.Millisecond)
				progress(256)
			}
		}
		d, ok := mf.fetch(name)
		if ok {
			progress(len(d))
		}
		return d, nil, ok
	})

	got, err := par.DecodeFile(context.Background(), cat, mf.fetch)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatal(err)
	}
	if n := launches.Load(); n != int64(code.MinNeeded()) {
		t.Fatalf("slow-but-moving source triggered %d fetches, want exactly %d — hedge fired on a live stream", n, code.MinNeeded())
	}
}

// TestParallelFetchHedgesPastStragglers makes every first-wave block
// pathologically slow and checks the stall tick alone races
// replacements in well before the stragglers would finish.
func TestParallelFetchHedgesPastStragglers(t *testing.T) {
	code := erasure.MustRS(2, 2) // m = 4, need = 2
	data := make([]byte, 40_000)
	rand.New(rand.NewSource(5)).Read(data)
	sizes := PlanChunkSizes(int64(len(data)), 40_000)
	mf, cat := newMemFetch(t, code, "hedge.dat", data, sizes)
	// Both first-wave blocks stall; decode needs two, so success
	// requires the stall tick to pull in blocks 2 and 3.
	slow := map[string]bool{
		BlockName("hedge.dat", 0, 0): true,
		BlockName("hedge.dat", 0, 1): true,
	}
	mf.delay = func(name string) time.Duration {
		if slow[name] {
			return 2 * time.Second
		}
		return 0
	}

	par := &Codec{Code: code, FetchParallel: 4, HedgeDelay: 20 * time.Millisecond}
	startT := time.Now()
	got, err := par.DecodeFile(context.Background(), cat, mf.fetch)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatal(err)
	}
	// need=2: nothing arrives until the first 20ms tick stalls blocks 0
	// and 1 and asks for 2 and 3 (fast) — far under the 2s stragglers.
	if e := time.Since(startT); e > time.Second {
		t.Fatalf("hedged decode took %v; stragglers were not raced", e)
	}
}

// TestParallelFetchCancelReturnsPromptly cancels a read whose fetches
// ignore ctx and block for seconds: the read returns the context error
// at once, leaving the fetches to finish on their own.
func TestParallelFetchCancelReturnsPromptly(t *testing.T) {
	code := erasure.MustXOR(2)
	mf, cat := newMemFetch(t, code, "cancel.dat", randData(9, 40_000), []int64{40_000})
	mf.delay = func(string) time.Duration { return 2 * time.Second }
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	par := &Codec{Code: code, FetchParallel: 4, HedgeDelay: 5 * time.Millisecond}
	startT := time.Now()
	if _, err := par.DecodeFile(ctx, cat, mf.fetch); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if e := time.Since(startT); e > time.Second {
		t.Fatalf("cancelled read returned after %v; it waited for its fetches", e)
	}
}

// perBlock adapts a whole-block fetch to the codec's group fetch. With
// no Holder set every group is a single block, so the hook sees the
// calls a per-block fetch would.
func perBlock(f func(name string, progress func(int)) ([]byte, Releaser, bool)) GroupFetchFunc {
	return func(_ context.Context, file string, ci int, parts []Part, progress func(int)) (Releaser, bool) {
		if len(parts) != 1 {
			panic("perBlock: a group of more than one block without a Holder")
		}
		d, rel, ok := f(BlockName(file, ci, parts[0].Block), progress)
		parts[0].Data = d
		return rel, ok
	}
}

// TestGroupFetchReplacesFailedHolder reads an rs(4,2) chunk whose
// blocks sit on three holders, two each, through a group fetch: the
// first wave asks holder 0 for blocks 0 and 3 in one exchange. That
// exchange fails as a whole, and the decode replaces both blocks from
// the other holders without asking holder 0 again.
func TestGroupFetchReplacesFailedHolder(t *testing.T) {
	code := erasure.MustRS(4, 2) // m = 6, need = 4
	data := randData(8, 40_000)
	sizes := PlanChunkSizes(int64(len(data)), 40_000)
	mf, cat := newMemFetch(t, code, "group.dat", data, sizes)
	var mu sync.Mutex
	var groups [][]int
	par := &Codec{Code: code, FetchParallel: 4, HedgeDelay: -1}
	par.Holder = func(_ string, _, e int) int { return e % 3 }
	par.Fetch = func(_ context.Context, file string, ci int, parts []Part, progress func(int)) (Releaser, bool) {
		var idx []int
		for _, p := range parts {
			idx = append(idx, p.Block)
		}
		mu.Lock()
		groups = append(groups, idx)
		mu.Unlock()
		if parts[0].Block%3 == 0 {
			return nil, false // holder 0 is down
		}
		for i := range parts {
			d, _ := mf.fetch(BlockName(file, ci, parts[i].Block))
			parts[i].Data = d
			progress(len(d))
		}
		return nil, true
	}
	got, err := par.DecodeFile(context.Background(), cat, mf.fetch)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("decode with holder 0 down: %v", err)
	}
	asked0 := 0
	for _, g := range groups {
		for _, e := range g[1:] {
			if e%3 != g[0]%3 {
				t.Fatalf("group %v mixes holders", g)
			}
		}
		if g[0]%3 == 0 {
			asked0++
			if len(g) != 2 {
				t.Fatalf("holder 0 was asked for %v, want blocks 0 and 3 in one exchange", g)
			}
		}
	}
	if asked0 != 1 {
		t.Fatalf("holder 0 was asked %d times in %v, want once", asked0, groups)
	}
}
