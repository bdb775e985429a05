package main

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// stat runs `pstrace gen -n 2000 -seed 1 | pstrace stat` through run()
// and returns stat's output.
func stat(t *testing.T) string {
	t.Helper()
	var trace, out bytes.Buffer
	if code := run([]string{"gen", "-n", "2000", "-seed", "1"}, nil, &trace); code != 0 {
		t.Fatalf("gen exited %d", code)
	}
	if code := run([]string{"stat"}, &trace, &out); code != 0 {
		t.Fatalf("stat exited %d", code)
	}
	return out.String()
}

func TestStatCountsGeneratedFiles(t *testing.T) {
	out := stat(t)
	if !strings.Contains(out, "files:  2000\n") {
		t.Fatalf("stat output does not report 2000 files:\n%s", out)
	}
}

func TestStatBucketsSumToHundred(t *testing.T) {
	var sum float64
	buckets := 0
	for _, line := range strings.Split(stat(t), "\n") {
		// A bucket line: "<lo> MB  <pct>%  <bar>".
		fields := strings.Fields(line)
		if len(fields) < 3 || fields[1] != "MB" || !strings.HasSuffix(fields[2], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(fields[2], "%"), 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		sum += pct
		buckets++
	}
	if buckets != 10 {
		t.Fatalf("%d bucket lines, want 10", buckets)
	}
	if math.Abs(sum-100) > 0.1 {
		t.Fatalf("bucket percentages sum to %.2f, want 100 ± 0.1", sum)
	}
}

func TestUnknownSubcommand(t *testing.T) {
	if code := run([]string{"frobnicate"}, nil, &bytes.Buffer{}); code != 2 {
		t.Fatalf("unknown subcommand exited %d, want 2", code)
	}
}
