// Command pstrace generates and inspects workload traces.
//
//	pstrace gen -n 120000 -seed 1 > trace.csv          # paper's distribution
//	pstrace gen -n 120000 -tail 1.5 > heavy.csv        # heavy-tailed variant
//	pstrace stat < trace.csv                           # moments + histogram
//
// Generated traces feed the experiments through trace.ReadTrace, making
// it possible to swap in a real collected trace with the same format.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"peerstripe/internal/stats"
	"peerstripe/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout))
}

// run is the testable body of the command: it performs one subcommand,
// reading a trace from stdin for stat and writing results to stdout, and
// returns the process exit code. Diagnostics go to os.Stderr.
func run(args []string, stdin io.Reader, stdout io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(os.Stderr, "usage: pstrace gen|stat [flags]")
		return 2
	}
	switch args[0] {
	case "gen":
		fs := flag.NewFlagSet("gen", flag.ContinueOnError)
		n := fs.Int("n", 10000, "number of files")
		seed := fs.Int64("seed", 1, "generator seed")
		tail := fs.Float64("tail", 0, "lognormal sigma for a heavy-tailed trace (0 = paper's normal)")
		if err := fs.Parse(args[1:]); err != nil {
			return 2
		}
		g := trace.NewGen(*seed)
		var files []trace.File
		if *tail > 0 {
			files = g.HeavyTailFiles(*n, *tail)
		} else {
			files = g.Files(*n)
		}
		if err := trace.WriteTrace(stdout, files); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	case "stat":
		files, err := trace.ReadTrace(stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if len(files) == 0 {
			fmt.Fprintln(os.Stderr, "empty trace")
			return 1
		}
		var a stats.Acc
		for _, f := range files {
			a.Add(float64(f.Size))
		}
		mb := float64(trace.MB)
		fmt.Fprintf(stdout, "files:  %d\n", a.N())
		fmt.Fprintf(stdout, "total:  %.2f TB\n", a.Sum()/float64(trace.TB))
		fmt.Fprintf(stdout, "mean:   %.2f MB\n", a.Mean()/mb)
		fmt.Fprintf(stdout, "sd:     %.2f MB\n", a.StdDev()/mb)
		fmt.Fprintf(stdout, "min:    %.2f MB\n", a.Min()/mb)
		fmt.Fprintf(stdout, "max:    %.2f MB\n", a.Max()/mb)
		// Ten equal-width buckets over [min, max+1).
		var counts [10]int
		width := (a.Max() + 1 - a.Min()) / float64(len(counts))
		for _, f := range files {
			counts[min(int((float64(f.Size)-a.Min())/width), len(counts)-1)]++
		}
		for i, c := range counts {
			lo := a.Min() + float64(i)*width
			frac := float64(c) / float64(len(files))
			fmt.Fprintf(stdout, "%8.0f MB  %6.2f%%  %s\n", lo/mb, 100*frac,
				strings.Repeat("#", int(frac*60)))
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n", args[0])
		return 2
	}
	return 0
}
