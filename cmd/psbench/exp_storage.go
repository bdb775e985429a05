package main

import (
	"fmt"
	"strings"

	"peerstripe/internal/baseline"
	"peerstripe/internal/sim"
	"peerstripe/internal/stats"
	"peerstripe/internal/trace"
)

// storageOutcome carries everything Figures 7–9 and Table 1 need from
// one (scheme, seed) insertion run.
type storageOutcome struct {
	failedFiles *stats.Series // x = files inserted, y = % failed stores
	failedBytes *stats.Series // y = % failed data
	utilization *stats.Series // y = % capacity used
	chunkCount  stats.Acc     // per stored file
	chunkSize   stats.Acc     // per stored chunk (bytes)
}

// runStorageOnce inserts the trace into fresh pools under all three
// schemes with a shared seed, sampling at regular intervals.
func runStorageOnce(seed int64, sc trace.Scale, out map[string]*storageOutcome) {
	g := trace.NewGen(seed)
	capacities := g.NodeCapacities(sc.Nodes)
	files := g.Files(sc.Files)

	samples := 60
	interval := len(files) / samples
	if interval == 0 {
		interval = 1
	}

	// PAST.
	{
		pool := sim.NewPool(seed, capacities)
		p := baseline.NewPAST(pool)
		o := out["PAST"]
		for i, f := range files {
			p.StoreFile(f.Name, f.Size)
			if (i+1)%interval == 0 || i == len(files)-1 {
				x := float64(i + 1)
				total := p.BytesStored + p.BytesFailed
				o.failedFiles.Observe(x, 100*float64(p.FilesFailed)/float64(i+1))
				o.failedBytes.Observe(x, 100*float64(p.BytesFailed)/float64(total))
				o.utilization.Observe(x, 100*pool.Utilization())
			}
		}
	}
	// CFS.
	{
		pool := sim.NewPool(seed, capacities)
		c := baseline.NewCFS(pool, 4*trace.MB)
		o := out["CFS"]
		for i, f := range files {
			nBefore := c.TotalBlocks
			if c.StoreFile(f.Name, f.Size) {
				o.chunkCount.Add(float64(c.TotalBlocks - nBefore))
				o.chunkSize.AddN(float64(4*trace.MB), int(c.TotalBlocks-nBefore))
			}
			if (i+1)%interval == 0 || i == len(files)-1 {
				x := float64(i + 1)
				total := c.BytesStored + c.BytesFailed
				o.failedFiles.Observe(x, 100*float64(c.FilesFailed)/float64(i+1))
				o.failedBytes.Observe(x, 100*float64(c.BytesFailed)/float64(total))
				o.utilization.Observe(x, 100*pool.Utilization())
			}
		}
	}
	// PeerStripe (no coding, §6.1 configuration).
	{
		pool := sim.NewPool(seed, capacities)
		s := sim.NewStore(pool, sim.PaperConfig())
		o := out["Ours"]
		for i, f := range files {
			res := s.StoreFile(f.Name, f.Size)
			if res.OK {
				o.chunkCount.Add(float64(res.Chunks))
				for _, cs := range res.ChunkSizes {
					o.chunkSize.Add(float64(cs))
				}
			}
			if (i+1)%interval == 0 || i == len(files)-1 {
				x := float64(i + 1)
				total := s.BytesStored + s.BytesFailed
				o.failedFiles.Observe(x, 100*float64(s.FilesFailed)/float64(i+1))
				o.failedBytes.Observe(x, 100*float64(s.BytesFailed)/float64(total))
				o.utilization.Observe(x, 100*pool.Utilization())
			}
		}
	}
}

// runStorage regenerates Figures 7, 8, 9 and Table 1.
func runStorage(scale, seeds int) {
	sc := trace.Scaled(scale)
	out := map[string]*storageOutcome{}
	for _, s := range []string{"PAST", "CFS", "Ours"} {
		out[s] = &storageOutcome{
			failedFiles: stats.NewSeries(s),
			failedBytes: stats.NewSeries(s),
			utilization: stats.NewSeries(s),
		}
	}
	for seed := 0; seed < seeds; seed++ {
		runStorageOnce(int64(seed+1), sc, out)
	}

	printSeries := func(title, unit string, pick func(*storageOutcome) *stats.Series, paperFinal map[string]float64) {
		section(title)
		defer func() {
			var rows [][]string
			xs, _ := pick(out["PAST"]).Points()
			for _, x := range xs {
				row := []string{fmt.Sprintf("%.0f", x)}
				for _, s := range []string{"PAST", "CFS", "Ours"} {
					y, _ := pick(out[s]).YAt(x)
					row = append(row, fmt.Sprintf("%.4f", y))
				}
				rows = append(rows, row)
			}
			tag := strings.Fields(title)[1]
			tag = strings.TrimSuffix(tag, ":")
			saveCSV("fig"+tag, []string{"files", "PAST", "CFS", "Ours"}, rows)
		}()
		fmt.Printf("nodes=%d files=%d seeds=%d (paper: 10000 nodes, 1.2M files, 10 seeds)\n",
			sc.Nodes, sc.Files, seeds)
		fmt.Printf("%-12s", "files")
		for _, s := range []string{"PAST", "CFS", "Ours"} {
			fmt.Printf("%12s", s)
		}
		fmt.Println()
		xs, _ := pick(out["PAST"]).Points()
		step := len(xs) / 12
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(xs); i += step {
			fmt.Printf("%-12.0f", xs[i])
			for _, s := range []string{"PAST", "CFS", "Ours"} {
				y, _ := pick(out[s]).YAt(xs[i])
				fmt.Printf("%11.2f%%", y)
			}
			fmt.Println()
		}
		fmt.Printf("final%7s", "")
		for _, s := range []string{"PAST", "CFS", "Ours"} {
			fmt.Printf("%11.2f%%", pick(out[s]).Last())
		}
		fmt.Println()
		if paperFinal != nil {
			fmt.Printf("paper%7s", "")
			for _, s := range []string{"PAST", "CFS", "Ours"} {
				fmt.Printf("%11.2f%%", paperFinal[s])
			}
			fmt.Printf("   (%s)\n", unit)
		}
		fmt.Print(stats.AsciiPlot([]*stats.Series{
			pick(out["PAST"]), pick(out["CFS"]), pick(out["Ours"]),
		}, 60, 12, "%"))
	}

	printSeries("Figure 7: failed file stores (% of files inserted)", "paper finals",
		func(o *storageOutcome) *stats.Series { return o.failedFiles },
		map[string]float64{"PAST": 36.0, "CFS": 15.2, "Ours": 5.2})
	printSeries("Figure 8: failed data size (% of data inserted)", "paper finals",
		func(o *storageOutcome) *stats.Series { return o.failedBytes },
		map[string]float64{"PAST": 39.2, "CFS": 22.0, "Ours": 12.7})
	printSeries("Figure 9: overall system utilization (%)", "paper finals",
		func(o *storageOutcome) *stats.Series { return o.utilization },
		map[string]float64{"PAST": 44.0, "CFS": 56.0, "Ours": 62.0})

	section("Table 1: chunks per file and chunk sizes")
	fmt.Printf("%-12s %14s %14s %16s %16s\n", "scheme", "chunks avg", "chunks sd", "size avg (MB)", "size sd (MB)")
	for _, s := range []string{"CFS", "Ours"} {
		o := out[s]
		fmt.Printf("%-12s %14.2f %14.2f %16.2f %16.2f\n", s,
			o.chunkCount.Mean(), o.chunkCount.StdDev(),
			o.chunkSize.Mean()/float64(trace.MB), o.chunkSize.StdDev()/float64(trace.MB))
	}
	fmt.Printf("%-12s %14s %14s %16s %16s\n", "paper CFS", "61.25", "13.8", "4.00", "0.00")
	fmt.Printf("%-12s %14s %14s %16s %16s\n", "paper Ours", "3.72", "3.1", "81.28", "19.9")
}
