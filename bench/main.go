// Command bench is the repository's one benchmark: four workloads on
// a live loopback ring, every byte read verified, end-to-end metrics
// from untraced runs and a per-layer ladder from traced ones. See
// README.md beside this file, and BENCHMARK.json at the repository
// root for the metrics' directions and regression bounds.
//
//	go run ./bench --workload bigcopy --seed 1 --seconds 10 --trace 0
//	go run ./bench                      # all four, untraced and traced
//	go run ./bench -repeat 5            # the whole set five times
//	go run ./bench -compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"

	"peerstripe/internal/erasure"
)

func main() {
	workload := flag.String("workload", "", "run this one workload in this process (bigcopy, checkpoint, gateway_hot, degraded_range); empty runs all four as child processes")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 records spans and runs the layer ladder, and reports the per-layer metrics instead of the end-to-end ones")
	repeat := flag.Int("repeat", 1, "with no -workload: run the whole set this many times and report medians and quartiles")
	compare := flag.Bool("compare", false, "compare two result files given as arguments against BENCHMARK.json's bounds")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for result.json and the traces")
	flag.Parse()

	if err := refuse(); err != nil {
		fatal(err)
	}
	// Pinned so a bigger machine measures the same program, and so the
	// runtime never runs more threads of Go code than there are CPUs.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case *workload == "":
		err = runAll(*seed, *seconds, *repeat, *out)
	default:
		err = runOne(config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, scale: 1, outDir: *out})
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// refuse rejects the two settings that make every number meaningless.
func refuse() error {
	if raceEnabled {
		return fmt.Errorf("built with -race: the race detector slows the data path several times over")
	}
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > runtime.NumCPU() {
			return fmt.Errorf("GOMAXPROCS=%d is above the %d processors of this machine", n, runtime.NumCPU())
		}
	}
	return nil
}

// environment is recorded beside every set of results.
type environment struct {
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	KernelTier string  `json:"kernel_tier"`
	Commit     string  `json:"commit"`
	Clients    int     `json:"clients"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func readEnvironment(seed int64, seconds float64) environment {
	env := environment{
		Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC: "100", KernelTier: erasure.KernelTier(), Commit: "unknown",
		Clients: clientCount(), Seed: seed, Seconds: seconds,
	}
	if v := os.Getenv("GOGC"); v != "" {
		env.GOGC = v
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

func (e environment) String() string {
	return fmt.Sprintf("env: %s nproc=%d GOMAXPROCS=%d GOGC=%s kernels=%s commit=%s clients=%d (closed loop) seed=%d seconds=%g",
		e.Go, e.NProc, e.GOMAXPROCS, e.GOGC, e.KernelTier, e.Commit, e.Clients, e.Seed, e.Seconds)
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process, prints every metric by
// name with its unit, and ends with the one-line JSON report.
func runOne(cfg config) error {
	res, err := execute(cfg)
	if err != nil {
		return err
	}
	fmt.Println(readEnvironment(cfg.seed, cfg.seconds))
	fmt.Printf("workload %s traced=%v ops=%d failed_ops=%d\n", res.workload, res.traced, res.attempted, res.failed)
	rep := report{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]reported)}
	for _, m := range res.metrics {
		fmt.Printf("  %-40s %16.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		rep.Metrics[m.name] = reported{Value: m.value, Unit: m.unit}
	}
	fmt.Print(res.ladder)
	for _, p := range res.problems {
		fmt.Println("FAILED CHECK:", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// results is bench/out/result.json: for each workload, the reports of
// its untraced and traced runs, one per repeat.
type results struct {
	Env       environment              `json:"env"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	EndToEnd []report `json:"end_to_end"`
	PerLayer []report `json:"per_layer"`
}

// runAll runs every workload, untraced then traced, each in a child
// process of its own so that peak memory is per workload. The children
// are this same binary re-executed: nothing is built twice, and they
// run one after another, never concurrently.
func runAll(seed int64, seconds float64, repeat int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := results{Env: readEnvironment(seed, seconds), Workloads: make(map[string]*workloadRuns)}
	for i := 0; i < repeat; i++ {
		for _, sp := range specs {
			runs := all.Workloads[sp.name]
			if runs == nil {
				runs = &workloadRuns{}
				all.Workloads[sp.name] = runs
			}
			for _, traced := range []int{0, 1} {
				cmd := exec.Command(self, "-workload", sp.name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced), "-out", outDir)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s (trace %d): %w", sp.name, traced, err)
				}
				body, last := splitLastLine(stdout)
				os.Stdout.Write(body) //nolint:errcheck // progress output
				var rep report
				if err := json.Unmarshal(last, &rep); err != nil {
					return fmt.Errorf("%s (trace %d): last line is not a report: %w", sp.name, traced, err)
				}
				if traced == 0 {
					runs.EndToEnd = append(runs.EndToEnd, rep)
				} else {
					runs.PerLayer = append(runs.PerLayer, rep)
				}
			}
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	printSummary(all)
	fmt.Println("wrote", path)
	for _, sp := range specs {
		for _, rep := range append(all.Workloads[sp.name].EndToEnd, all.Workloads[sp.name].PerLayer...) {
			if !rep.Correct {
				return fmt.Errorf("%s: a run was not correct (%d of %d operations failed, or a check did)", sp.name, rep.Failed, rep.Attempted)
			}
		}
	}
	return nil
}

func splitLastLine(out []byte) (body, last []byte) {
	out = bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(out, '\n')
	return out[:i+1], out[i+1:]
}

// printSummary prints, per workload, every metric's median over the
// repeats with its quartiles.
func printSummary(all results) {
	fmt.Println(all.Env)
	for _, sp := range specs {
		runs := all.Workloads[sp.name]
		for _, group := range []struct {
			defs []def
			reps []report
		}{{endToEnd, runs.EndToEnd}, {perLayer, runs.PerLayer}} {
			ops, failed := 0, 0
			for _, rep := range group.reps {
				ops += rep.Attempted
				failed += rep.Failed
			}
			fmt.Printf("%s: %d runs, ops=%d failed_ops=%d\n", sp.name, len(group.reps), ops, failed)
			for _, d := range group.defs {
				q1, med, q3 := quartiles(values(group.reps, d.name))
				fmt.Printf("  %-40s %16.6g %-6s", d.name, med, d.unit)
				if len(group.reps) > 1 {
					fmt.Printf(" [q1 %.6g, q3 %.6g]", q1, q3)
				}
				fmt.Println()
			}
		}
	}
}

func values(reps []report, name string) []float64 {
	var out []float64
	for _, rep := range reps {
		if m, ok := rep.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
