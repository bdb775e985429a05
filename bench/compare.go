package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of
// vs, by the method of Python's statistics.quantiles(vs, n=4) — the
// one the benchmark's contract measures spread with. One value is its
// own quartiles.
func quartiles(vs []float64) (q1, med, q3 float64) {
	if len(vs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 quantiles, exclusive method
		if len(s) == 1 {
			return s[0]
		}
		pos := float64(k*(len(s)+1)) / 4
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// benchmarkFile is BENCHMARK.json as the comparison and the smoke test
// read it.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []declared                   `json:"end_to_end"`
	PerLayer  []declared                   `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

// compareFiles applies BENCHMARK.json's bounds to two result files,
// the baseline first, and prints one row per workload and end-to-end
// metric: better, worse, unchanged, or unresolved when either side's
// run-to-run spread is wider than the bound.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two result files: baseline, then candidate")
	}
	var bm benchmarkFile
	if err := readJSON("BENCHMARK.json", &bm); err != nil {
		return err
	}
	var a, b results
	if err := readJSON(paths[0], &a); err != nil {
		return err
	}
	if err := readJSON(paths[1], &b); err != nil {
		return err
	}
	fmt.Printf("%-16s %-28s %14s %14s %8s %7s  %s\n", "workload", "metric", "baseline", "candidate", "change", "bound", "verdict")
	bad := 0
	for _, sp := range specs {
		ra, rb := a.Workloads[sp.name], b.Workloads[sp.name]
		if ra == nil || rb == nil {
			return fmt.Errorf("workload %s is missing from a result file", sp.name)
		}
		for _, m := range bm.EndToEnd {
			q1a, ma, q3a := quartiles(values(ra.EndToEnd, m.Name))
			q1b, mb, q3b := quartiles(values(rb.EndToEnd, m.Name))
			if ma == 0 {
				return fmt.Errorf("%s %s: no baseline value", sp.name, m.Name)
			}
			worse := (mb - ma) / ma // share of the baseline's median by which the candidate is worse
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "unchanged"
			switch spread := max((q3a-q1a)/ma, (q3b-q1b)/mb); {
			case spread > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*spread)
				bad++
			case worse > m.Bound:
				verdict = "worse"
				bad++
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-16s %-28s %14.6g %14.6g %+7.1f%% %6.0f%%  %s\n", sp.name, m.Name, ma, mb, 100*(mb-ma)/ma, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are worse or unresolved", bad)
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
