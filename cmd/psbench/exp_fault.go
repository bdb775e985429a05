package main

import (
	"fmt"

	"peerstripe/internal/erasure"
	"peerstripe/internal/sim"
	"peerstripe/internal/stats"
	"peerstripe/internal/trace"
)

// runFig10 regenerates Figure 10: files unavailable as nodes fail
// one-by-one (no repair) under no coding, (2,3) XOR, and the online
// code configured to tolerate two losses per chunk.
func runFig10(scale, seeds int) {
	sc := trace.Scaled(scale)
	failTarget := sc.Nodes / 10 // the paper fails 1000 of 10000
	specs := []struct {
		label    string
		spec     erasure.Spec
		rateless bool
	}{
		{"No error code", erasure.NullSpec, false},
		{"XOR code", erasure.XOR23Spec, false},
		{"Online code", erasure.OnlineSimSpec, true},
	}

	series := make(map[string]*stats.Series)
	for _, spc := range specs {
		series[spc.label] = stats.NewSeries(spc.label)
	}

	for seed := 0; seed < seeds; seed++ {
		g := trace.NewGen(int64(seed + 100))
		capacities := g.NodeCapacities(sc.Nodes)
		files := g.Files(sc.Files)
		for _, spc := range specs {
			pool := sim.NewPool(int64(seed+100), capacities)
			cfg := sim.PaperConfig()
			cfg.Spec = spc.spec
			cfg.Rateless = spc.rateless
			st := sim.NewStore(pool, cfg)
			stored := 0
			for _, f := range files {
				if st.StoreFile(f.Name, f.Size).OK {
					stored++
				}
			}
			rng := g.Rand()
			sample := failTarget / 20
			if sample == 0 {
				sample = 1
			}
			for failed := 1; failed <= failTarget; failed++ {
				nodes := pool.Net.Nodes()
				victim := nodes[rng.Intn(len(nodes))].ID
				if _, err := st.FailNode(victim, false); err != nil {
					continue
				}
				if failed%sample == 0 || failed == failTarget {
					unavailable := 100 * float64(st.FilesLost) / float64(stored)
					// Normalise x to the paper's 0–1000 axis.
					x := float64(failed) * 1000 / float64(failTarget)
					series[spc.label].Observe(x, unavailable)
				}
			}
		}
	}

	section("Figure 10: unavailable files vs failed nodes (no repair)")
	fmt.Printf("nodes=%d files=%d seeds=%d, failing %d nodes (10%%); x normalised to the paper's 0-1000\n",
		sc.Nodes, sc.Files, seeds, failTarget)
	fmt.Printf("%-14s", "failed(x/1000)")
	for _, spc := range specs {
		fmt.Printf("%16s", spc.label)
	}
	fmt.Println()
	xs, _ := series[specs[0].label].Points()
	for _, x := range xs {
		fmt.Printf("%-14.0f", x)
		for _, spc := range specs {
			y, _ := series[spc.label].YAt(x)
			fmt.Printf("%15.2f%%", y)
		}
		fmt.Println()
	}
	fmt.Printf("%-14s%15s%15s%15s\n", "paper@1000", "~32%", "~9%", "1.48%")
	var rows [][]string
	for _, x := range xs {
		row := []string{fmt.Sprintf("%.0f", x)}
		for _, spc := range specs {
			y, _ := series[spc.label].YAt(x)
			row = append(row, fmt.Sprintf("%.4f", y))
		}
		rows = append(rows, row)
	}
	saveCSV("fig10", []string{"failed", "none", "xor", "online"}, rows)
	fmt.Print(stats.AsciiPlot([]*stats.Series{
		series[specs[0].label], series[specs[1].label], series[specs[2].label],
	}, 60, 12, "% unavailable"))
}

// runTable3 regenerates Table 3: data lost and regenerated after 10%
// and 20% of nodes have failed, with repair delayed in proportion to
// the data being recovered.
func runTable3(scale, seeds int) {
	sc := trace.Scaled(scale)
	section("Table 3: churn — data lost and regenerated")
	fmt.Printf("nodes=%d files=%d seeds=%d, XOR(2,3) coding, delayed repair\n", sc.Nodes, sc.Files, seeds)
	fmt.Printf("%-10s %14s %18s %16s %14s\n", "failed", "lost (GB)", "regenerated (GB)", "avg/failure", "sd/failure")

	type mark struct {
		lost, regen float64
		per         stats.Acc
	}
	marks := map[int]*mark{10: {}, 20: {}}

	for seed := 0; seed < seeds; seed++ {
		g := trace.NewGen(int64(seed + 200))
		pool := sim.NewPool(int64(seed+200), g.NodeCapacities(sc.Nodes))
		cfg := sim.PaperConfig()
		cfg.Spec = erasure.XOR23Spec
		st := sim.NewStore(pool, cfg)
		for _, f := range g.Files(sc.Files) {
			st.StoreFile(f.Name, f.Size)
		}
		// Repair bandwidth: twice the mean per-node payload per
		// failure interval, so most — not all — regeneration completes
		// between failures, as the paper's delay model intends.
		meanNodeData := float64(pool.TotalUsed) / float64(pool.Size())
		cs := sim.NewChurnSim(st, 2*meanNodeData, 1.0)
		rng := g.Rand()
		target := sc.Nodes / 5 // 20%
		for failed := 1; failed <= target; failed++ {
			nodes := pool.Net.Nodes()
			if err := cs.FailNext(nodes[rng.Intn(len(nodes))].ID); err != nil {
				continue
			}
			for pct, mk := range marks {
				if failed == sc.Nodes*pct/100 {
					mk.lost += float64(cs.TotalLost)
					mk.regen += float64(cs.TotalRegenerated)
					for _, r := range cs.PerFailureRegen {
						mk.per.Add(float64(r))
					}
				}
			}
		}
	}

	gb := float64(trace.GB)
	for _, pct := range []int{10, 20} {
		mk := marks[pct]
		fmt.Printf("%-10s %14.2f %18.2f %16.2f %14.2f\n",
			fmt.Sprintf("%d%%", pct),
			mk.lost/float64(seeds)/gb,
			mk.regen/float64(seeds)/gb,
			mk.per.Mean()/gb,
			mk.per.StdDev()/gb)
	}
	fmt.Printf("%-10s %14s %18s %16s %14s  (at 10000 nodes / 278.7 TB)\n",
		"paper 10%", "0", "28044", "28.04", "78.95")
	fmt.Printf("%-10s %14s %18s %16s %14s\n",
		"paper 20%", "142.18", "58625", "29.31", "80.02")
}
