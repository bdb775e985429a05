package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of an ascending slice (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// tail returns the highest of p99/p95/p90 that still has at least ten
// samples beyond it, and its label. With under a hundred samples no
// percentile qualifies and the maximum is reported, labelled as such.
func tail(sorted []time.Duration) (time.Duration, string) {
	n := len(sorted)
	for _, p := range []int{99, 95, 90} {
		if n-(n*p+99)/100 >= 10 {
			return quantile(sorted, float64(p)/100), "p" + strconv.Itoa(p)
		}
	}
	return quantile(sorted, 1), "max"
}

func medianDuration(d []time.Duration) time.Duration {
	return quantile(sortDurations(d), 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// usage is a point-in-time reading of the process-wide cost counters:
// clients and nodes share the process, so these are whole-system costs.
type usage struct {
	cpu     time.Duration // user + system
	alloc   uint64        // bytes allocated, cumulative
	mallocs uint64        // objects allocated, cumulative
}

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
	}
}

// allocDelta measures the bytes and objects fn allocates. It is only
// meaningful while nothing else in the process is running.
func allocDelta(fn func()) (bytes, objects uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// metric is one reported number. Note carries what the rule for
// timings asks to be printed beside it (percentile used, sample count).
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}
