// Package peerstripe's root benchmark suite: one testing.B benchmark
// per table and figure of the paper's evaluation, at reduced scale so
// `go test -bench=. -benchmem` regenerates every result quickly. The
// psbench command runs the same experiments with full output and
// adjustable scale.
package peerstripe_test

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"peerstripe"
	"peerstripe/internal/baseline"
	"peerstripe/internal/erasure"
	"peerstripe/internal/grid"
	"peerstripe/internal/multicast"
	"peerstripe/internal/sim"
	"peerstripe/internal/trace"
	"peerstripe/internal/wire"
)

// TestMain prints the kernel dispatch decision ahead of benchmark runs
// so captured `-bench` output records which tier — and any PS_KERNELS override — produced the
// numbers. It fails a passing run in which a receive frame was
// collected without Release, which is counted under the race detector
// only (see wire.LeakedFrames).
func TestMain(m *testing.M) {
	flag.Parse()
	if bench := flag.Lookup("test.bench"); bench != nil && bench.Value.String() != "" {
		fmt.Printf("kernels: %s\n", erasure.KernelImpl())
	}
	code := m.Run()
	if code == 0 {
		if n := wire.LeakedFrames(); n > 0 {
			fmt.Fprintf(os.Stderr, "FAIL: %d receive frames were collected without Release\n", n)
			code = 1
		}
	}
	os.Exit(code)
}

// benchScale is the population divisor used by the insertion benches.
const benchScale = 400 // 25 nodes / 3000 files per iteration

func insertAll(b *testing.B, store func(name string, size int64)) {
	b.Helper()
	sc := trace.Scaled(benchScale)
	g := trace.NewGen(1)
	files := g.Files(sc.Files)
	for _, f := range files {
		store(f.Name, f.Size)
	}
}

// BenchmarkFig7PAST measures the Figure 7/8/9 insertion workload under
// PAST (whole-file placement).
func BenchmarkFig7PAST(b *testing.B) {
	sc := trace.Scaled(benchScale)
	for b.Loop() {
		g := trace.NewGen(1)
		pool := sim.NewPool(1, g.NodeCapacities(sc.Nodes))
		p := baseline.NewPAST(pool)
		insertAll(b, func(n string, s int64) { p.StoreFile(n, s) })
	}
}

// BenchmarkFig7CFS measures the insertion workload under CFS (4 MB
// fixed blocks).
func BenchmarkFig7CFS(b *testing.B) {
	sc := trace.Scaled(benchScale)
	for b.Loop() {
		g := trace.NewGen(1)
		pool := sim.NewPool(1, g.NodeCapacities(sc.Nodes))
		c := baseline.NewCFS(pool, 4*trace.MB)
		insertAll(b, func(n string, s int64) { c.StoreFile(n, s) })
	}
}

// BenchmarkFig7PeerStripe measures the insertion workload under
// PeerStripe (capacity-probed varying chunks) — together with the two
// baselines this regenerates Figures 7-9 and Table 1.
func BenchmarkFig7PeerStripe(b *testing.B) {
	sc := trace.Scaled(benchScale)
	for b.Loop() {
		g := trace.NewGen(1)
		pool := sim.NewPool(1, g.NodeCapacities(sc.Nodes))
		s := sim.NewStore(pool, sim.PaperConfig())
		insertAll(b, func(n string, sz int64) { s.StoreFile(n, sz) })
	}
}

// BenchmarkFig10Availability measures the no-repair failure sweep that
// regenerates Figure 10 (XOR coding arm).
func BenchmarkFig10Availability(b *testing.B) {
	sc := trace.Scaled(benchScale)
	for b.Loop() {
		g := trace.NewGen(2)
		pool := sim.NewPool(2, g.NodeCapacities(sc.Nodes))
		cfg := sim.PaperConfig()
		cfg.Spec = erasure.XOR23Spec
		st := sim.NewStore(pool, cfg)
		for _, f := range g.Files(sc.Files) {
			st.StoreFile(f.Name, f.Size)
		}
		rng := g.Rand()
		for failed := 0; failed < sc.Nodes/10; failed++ {
			nodes := pool.Net.Nodes()
			_, _ = st.FailNode(nodes[rng.Intn(len(nodes))].ID, false)
		}
	}
}

// BenchmarkTable2NullEncode is the Table 2 NULL-code arm.
func BenchmarkTable2NullEncode(b *testing.B) {
	benchEncode(b, erasure.NewNull())
}

// BenchmarkTable2XOREncode is the Table 2 (2,3) XOR arm.
func BenchmarkTable2XOREncode(b *testing.B) {
	benchEncode(b, erasure.MustXOR(2))
}

// BenchmarkTable2OnlineEncode is the Table 2 online-code arm (q=3,
// ε=0.01, 4096 blocks per 4 MB chunk).
func BenchmarkTable2OnlineEncode(b *testing.B) {
	benchEncode(b, erasure.MustOnline(4096, erasure.OnlineOpts{}))
}

func benchEncode(b *testing.B, c erasure.Code) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	chunk := make([]byte, 4*trace.MB)
	rng.Read(chunk)
	b.SetBytes(4 * trace.MB)
	for b.Loop() {
		if _, err := c.Encode(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2OnlineDecode measures the online-code decode side.
func BenchmarkTable2OnlineDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	c := erasure.MustOnline(4096, erasure.OnlineOpts{})
	chunk := make([]byte, 4*trace.MB)
	rng.Read(chunk)
	blocks, err := c.Encode(chunk)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4 * trace.MB)
	for b.Loop() {
		if _, err := c.Decode(blocks, len(chunk)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2OnlineDecodeSched measures online-code decode per
// check schedule at the paper's 2% stored surplus — the schedule ×
// surplus axis opened by internal/erasure/schedule.go. Each run also
// reports how many columns the decoder had to inactivate (0 means
// belief propagation completed; the BP-completion sweep itself is
// `psbench -exp schedules`).
func BenchmarkTable2OnlineDecodeSched(b *testing.B) {
	for _, sched := range erasure.Schedules() {
		b.Run(sched.Name(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			c := erasure.MustOnline(4096, erasure.OnlineOpts{Schedule: sched})
			chunk := make([]byte, 4*trace.MB)
			rng.Read(chunk)
			blocks, err := c.Encode(chunk)
			if err != nil {
				b.Fatal(err)
			}
			var inactivated int
			b.SetBytes(4 * trace.MB)
			for b.Loop() {
				_, st, err := c.DecodeWithStats(blocks, len(chunk))
				if err != nil {
					b.Fatal(err)
				}
				inactivated = st.Inactivated
			}
			b.ReportMetric(float64(inactivated), "inactivated")
		})
	}
}

// BenchmarkTable2OnlineRepair measures the §4.4 repair path: minting a
// replacement check block with FreshBlock (aux/composite rebuild plus
// one composition gather) — the per-block cost a node pays when
// re-creating lost blocks during churn.
func BenchmarkTable2OnlineRepair(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	c := erasure.MustOnline(4096, erasure.OnlineOpts{})
	chunk := make([]byte, 4*trace.MB)
	rng.Read(chunk)
	b.SetBytes(4 * trace.MB)
	for i := 0; b.Loop(); i++ {
		if _, err := c.FreshBlock(chunk, c.EncodedBlocks()+i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Churn measures the delayed-repair churn sweep of
// Table 3 (20% of nodes failing).
func BenchmarkTable3Churn(b *testing.B) {
	sc := trace.Scaled(benchScale)
	for b.Loop() {
		g := trace.NewGen(5)
		pool := sim.NewPool(5, g.NodeCapacities(sc.Nodes))
		cfg := sim.PaperConfig()
		cfg.Spec = erasure.XOR23Spec
		st := sim.NewStore(pool, cfg)
		for _, f := range g.Files(sc.Files) {
			st.StoreFile(f.Name, f.Size)
		}
		mean := float64(pool.TotalUsed) / float64(pool.Size())
		cs := sim.NewChurnSim(st, 2*mean, 1.0)
		rng := g.Rand()
		for failed := 0; failed < sc.Nodes/5; failed++ {
			nodes := pool.Net.Nodes()
			_ = cs.FailNext(nodes[rng.Intn(len(nodes))].ID)
		}
	}
}

// BenchmarkFig11Bullet measures a full dissemination at the paper's
// 63-node, 1000-packet configuration (RanSub 8%).
func BenchmarkFig11Bullet(b *testing.B) {
	for i := 0; b.Loop(); i++ {
		cfg := multicast.DefaultConfig()
		cfg.Seed = int64(i + 1)
		s := multicast.NewSim(multicast.BinaryTree(5), cfg)
		if s.Run(5000); !s.Done() {
			b.Fatal("dissemination incomplete")
		}
	}
}

// BenchmarkFig12BulletWide measures dissemination at RanSub 16% (the
// Figure 12 configuration).
func BenchmarkFig12BulletWide(b *testing.B) {
	for i := 0; b.Loop(); i++ {
		cfg := multicast.DefaultConfig()
		cfg.RanSubFrac = 0.16
		cfg.Seed = int64(i + 1)
		s := multicast.NewSim(multicast.BinaryTree(5), cfg)
		if s.Run(5000); !s.Done() {
			b.Fatal("dissemination incomplete")
		}
	}
}

// BenchmarkTable4BigCopy measures the full Table 4 sweep on the
// 32-machine cluster model.
func BenchmarkTable4BigCopy(b *testing.B) {
	sizes := []int64{1, 2, 4, 8, 16, 32, 64, 128}
	bytes := make([]int64, len(sizes))
	for i, s := range sizes {
		bytes[i] = s * trace.GB
	}
	for i := 0; b.Loop(); i++ {
		c := grid.NewCluster(int64(i+1), 32)
		rows := c.RunTable4(bytes)
		if !rows[len(rows)-1].Varying.OK {
			b.Fatal("128 GB varying-chunk copy failed")
		}
	}
}

// BenchmarkAblationChunkCap compares uncapped vs 256 MB-capped chunk
// sizing — the §4.5 trade-off.
func BenchmarkAblationChunkCap(b *testing.B) {
	sc := trace.Scaled(benchScale)
	for _, cap := range []int64{0, 256 * trace.MB} {
		name := "uncapped"
		if cap > 0 {
			name = "cap256MB"
		}
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				g := trace.NewGen(6)
				pool := sim.NewPool(6, g.NodeCapacities(sc.Nodes))
				cfg := sim.DefaultConfig()
				cfg.MaxChunkSize = cap
				st := sim.NewStore(pool, cfg)
				for _, f := range g.Files(sc.Files / 2) {
					st.StoreFile(f.Name, f.Size)
				}
			}
		})
	}
}

// BenchmarkIOLibRead measures the interposed read path end to end over
// an in-process ring: 1 MiB reads of whole chunks, which after the first
// pass come from the client's chunk cache (the §5 data path).
func BenchmarkIOLibRead(b *testing.B) {
	_, seed := testRing(b, 4, 64*trace.MB)
	c := dialTest(b, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(1*trace.MB))
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 8*trace.MB)
	rng.Read(data)
	if _, err := c.StoreBytes(context.Background(), "bench.dat", data); err != nil {
		b.Fatal(err)
	}
	lib := grid.NewIOLib(c)
	fd, err := lib.Open("bench.dat")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 1*trace.MB)
	b.SetBytes(int64(len(buf)))
	for i := 0; b.Loop(); i++ {
		off := int64(i%7) * trace.MB
		if _, err := lib.ReadAt(fd, buf, off); err != nil {
			b.Fatal(err)
		}
	}
}
