package main

import (
	"fmt"

	"peerstripe/internal/erasure"
	"peerstripe/internal/grid"
	"peerstripe/internal/sim"
	"peerstripe/internal/stats"
	"peerstripe/internal/trace"
)

// runTable4 regenerates Table 4: bigCopy wall-clock across the three
// storage schemes on the 32-machine pool, 1–128 GB.
func runTable4() {
	section("Table 4: Condor bigCopy — whole file vs fixed vs varying chunks")
	c := grid.NewCluster(7, 32)
	sizes := []int64{1, 2, 4, 8, 16, 32, 64, 128}
	bytes := make([]int64, len(sizes))
	for i, s := range sizes {
		bytes[i] = s * trace.GB
	}
	rows := c.RunTable4(bytes)

	fmt.Printf("32 machines, uniform 2-15 GB contributions, calibrated 100 MB/s-class transfer model\n")
	fmt.Printf("%-8s %14s %22s %24s\n", "size", "whole file", "fixed chunks", "varying chunks")
	for _, r := range rows {
		whole := "N/A"
		if r.Whole.OK {
			whole = fmt.Sprintf("%.1f", r.Whole.Seconds)
		}
		fixed := "N/A"
		if r.Fixed.OK {
			if ov := r.OverheadPct(r.Fixed); ov >= 0 {
				fixed = fmt.Sprintf("%.1f (%.1f%%)", r.Fixed.Seconds, ov)
			} else {
				fixed = fmt.Sprintf("%.1f (N/A)", r.Fixed.Seconds)
			}
		}
		varying := "N/A"
		if r.Varying.OK {
			if ov := r.OverheadPct(r.Varying); ov >= 0 {
				varying = fmt.Sprintf("%.1f (%.1f%%)", r.Varying.Seconds, ov)
			} else {
				varying = fmt.Sprintf("%.1f (N/A)", r.Varying.Seconds)
			}
		}
		fmt.Printf("%-8s %14s %22s %24s\n",
			fmt.Sprintf("%d GB", r.Size/trace.GB), whole, fixed, varying)
	}
	fmt.Println("paper 1 GB:  151.0 | 169.0 (11.9%) | 176.4 (16.8%)")
	fmt.Println("paper 8 GB:  1051.2 | 1320.0 (25.6%) | 1076.6 (2.4%)")
	fmt.Println("paper 128GB: N/A | 20881.5 | 16425.8   (whole-file fails above single-node capacity)")
}

// runAblations benches the design choices DESIGN.md calls out: the
// getCapacity reporting-fraction policy, the chunk-size cap of §4.5,
// and per-chunk versus whole-file coding granularity.
func runAblations(scale int) {
	sc := trace.Scaled(scale)
	g := trace.NewGen(31)
	capacities := g.NodeCapacities(sc.Nodes)
	files := g.Files(sc.Files / 2)

	section("Ablation A: getCapacity reporting fraction (§4.3 policy)")
	fmt.Printf("%-12s %14s %14s %14s\n", "fraction", "failed files", "chunks/file", "mean hops")
	for _, frac := range []float64{1.0, 0.01, 0.002, 0.0005} {
		pool := sim.NewPool(31, capacities)
		pool.SetReportFraction(frac)
		st := sim.NewStore(pool, sim.DefaultConfig())
		var chunks stats.Acc
		for _, f := range files {
			if res := st.StoreFile(f.Name, f.Size); res.OK {
				chunks.Add(float64(res.Chunks))
			}
		}
		fmt.Printf("%-12.4f %13.2f%% %14.2f %14.2f\n", frac,
			100*float64(st.FilesFailed)/float64(len(files)), chunks.Mean(), pool.MeanLookupHops())
	}

	section("Ablation B: chunk-size cap (§4.5 trade-off)")
	fmt.Printf("%-12s %14s %14s %16s\n", "cap", "chunks/file", "lookups/file", "regen/chunk (MB)")
	for _, cap := range []int64{0, 400 * trace.MB, 100 * trace.MB, 25 * trace.MB} {
		pool := sim.NewPool(32, capacities)
		cfg := sim.DefaultConfig()
		cfg.MaxChunkSize = cap
		st := sim.NewStore(pool, cfg)
		var chunks, sizes stats.Acc
		lookupsBefore := pool.Lookups
		stored := 0
		for _, f := range files {
			if res := st.StoreFile(f.Name, f.Size); res.OK {
				stored++
				chunks.Add(float64(res.Chunks))
				for _, cs := range res.ChunkSizes {
					sizes.Add(float64(cs))
				}
			}
		}
		label := "none"
		if cap > 0 {
			label = fmt.Sprintf("%d MB", cap/trace.MB)
		}
		perFile := float64(pool.Lookups-lookupsBefore) / float64(len(files))
		fmt.Printf("%-12s %14.2f %14.2f %16.2f\n", label, chunks.Mean(), perFile,
			sizes.Mean()/float64(trace.MB))
	}

	section("Ablation C: coding granularity — per-chunk vs across-chunks recovery cost")
	// Per-chunk coding (the paper's choice, §4.2) reads one chunk's
	// blocks to rebuild a lost block; coding across chunks would read
	// the whole file. Compare bytes read per repaired block.
	pool := sim.NewPool(33, capacities)
	cfg := sim.PaperConfig()
	cfg.Spec = erasure.XOR23Spec
	st := sim.NewStore(pool, cfg)
	var perChunkRead, wholeFileRead stats.Acc
	for _, f := range files[:min(len(files), 2000)] {
		if res := st.StoreFile(f.Name, f.Size); res.OK {
			for _, cs := range res.ChunkSizes {
				perChunkRead.Add(float64(cs))                // read n blocks ≈ chunk bytes
				wholeFileRead.Add(float64(res.LogicalBytes)) // across-chunk coding reads the file
			}
		}
	}
	fmt.Printf("%-26s %18s\n", "granularity", "bytes read/repair (MB)")
	fmt.Printf("%-26s %18.2f\n", "per-chunk (PeerStripe)", perChunkRead.Mean()/float64(trace.MB))
	fmt.Printf("%-26s %18.2f\n", "across chunks", wholeFileRead.Mean()/float64(trace.MB))

	section("Ablation D: neighbor space reservation vs rateless drop-and-recreate (§4.4)")
	// The paper rejected reserving neighbor-takeover space because it
	// strands capacity; quantify the stranding at the full §6.1 load,
	// where reservations actually bite.
	fullFiles := g.Files(sc.Files)
	fmt.Printf("%-26s %14s %14s\n", "policy", "failed files", "utilization")
	for _, reserve := range []bool{false, true} {
		pool := sim.NewPool(34, capacities)
		st := sim.NewStore(pool, sim.PaperConfig())
		for i, f := range fullFiles {
			if reserve && i%200 == 0 {
				pool.RecomputeNeighborReserves()
			}
			st.StoreFile(f.Name, f.Size)
		}
		label := "drop-and-recreate (paper)"
		if reserve {
			label = "reserve for neighbors"
		}
		fmt.Printf("%-26s %13.2f%% %13.2f%%\n", label,
			100*float64(st.FilesFailed)/float64(len(fullFiles)), 100*pool.Utilization())
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
