package main

import (
	"fmt"

	"peerstripe/internal/baseline"
	"peerstripe/internal/sim"
	"peerstripe/internal/trace"
)

// runHeavyTail is the Figure 7 reconciliation experiment (see
// EXPERIMENTS.md): under the published N(243 MB, 55 MB) trace our PAST
// fails far less than the paper's 36% because nearly every file fits
// nearly every node. Real video/mirror traces are heavy-tailed; as the
// tail grows, PAST — which must place whole files on single nodes —
// degrades sharply toward the paper's figure while CFS and PeerStripe
// barely move, because striping is insensitive to file size.
func runHeavyTail(scale, seeds int) {
	sc := trace.Scaled(scale)
	section("Reconciliation: failed stores vs file-size tail heaviness (Fig 7 companion)")
	fmt.Printf("nodes=%d files=%d seeds=%d, lognormal traces matched to the 243 MB mean\n",
		sc.Nodes, sc.Files, seeds)
	fmt.Printf("%-22s %12s %12s %12s\n", "trace", "PAST", "CFS", "Ours")

	type accrow struct{ past, cfs, ours float64 }
	run := func(mk func(g *trace.Gen) []trace.File) accrow {
		var r accrow
		for seed := 0; seed < seeds; seed++ {
			g := trace.NewGen(int64(seed + 400))
			capacities := g.NodeCapacities(sc.Nodes)
			files := mk(g)

			pp := sim.NewPool(int64(seed+400), capacities)
			p := baseline.NewPAST(pp)
			for _, f := range files {
				p.StoreFile(f.Name, f.Size)
			}
			r.past += 100 * float64(p.FilesFailed) / float64(len(files))

			cp := sim.NewPool(int64(seed+400), capacities)
			c := baseline.NewCFS(cp, 4*trace.MB)
			for _, f := range files {
				c.StoreFile(f.Name, f.Size)
			}
			r.cfs += 100 * float64(c.FilesFailed) / float64(len(files))

			op := sim.NewPool(int64(seed+400), capacities)
			s := sim.NewStore(op, sim.PaperConfig())
			for _, f := range files {
				s.StoreFile(f.Name, f.Size)
			}
			r.ours += 100 * float64(s.FilesFailed) / float64(len(files))
		}
		n := float64(seeds)
		return accrow{r.past / n, r.cfs / n, r.ours / n}
	}

	rows := []struct {
		label string
		mk    func(g *trace.Gen) []trace.File
	}{
		{"normal (paper stated)", func(g *trace.Gen) []trace.File { return g.Files(sc.Files) }},
		{"lognormal sigma=1.0", func(g *trace.Gen) []trace.File { return g.HeavyTailFiles(sc.Files, 1.0) }},
		{"lognormal sigma=1.5", func(g *trace.Gen) []trace.File { return g.HeavyTailFiles(sc.Files, 1.5) }},
		{"lognormal sigma=2.0", func(g *trace.Gen) []trace.File { return g.HeavyTailFiles(sc.Files, 2.0) }},
	}
	for _, row := range rows {
		r := run(row.mk)
		fmt.Printf("%-22s %11.1f%% %11.1f%% %11.1f%%\n", row.label, r.past, r.cfs, r.ours)
	}
	fmt.Println("paper (real trace):    36.0%        15.2%         5.2%")
}
