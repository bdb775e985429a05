package main

import (
	"os"
	"regexp"
	"testing"
	"time"
)

func readDeclared(t *testing.T) benchmarkFile {
	t.Helper()
	var d benchmarkFile
	if err := readJSON("../BENCHMARK.json", &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// smoke is a run short and small enough for tier 1: a sixteenth of
// every object size, a fraction of a second per phase.
func smoke(workload string, trace bool, dir string) config {
	return config{workload: workload, seed: 7, seconds: 0.4, trace: trace, scale: 16, outDir: dir}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload untraced and
// traced on a reduced catalogue and checks that each run verifies every
// byte with no failed operation and emits exactly the metrics
// BENCHMARK.json declares, once each, with the declared unit.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(d.Workloads), len(specs))
	}
	validName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	dir := t.TempDir()
	for i, sp := range specs {
		if d.Workloads[i].Name != sp.name || d.Workloads[i].Why != sp.why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), the harness has %q (%q)", i, d.Workloads[i].Name, d.Workloads[i].Why, sp.name, sp.why)
		}
		for _, traced := range []bool{false, true} {
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			res, err := execute(smoke(sp.name, traced, dir))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if res.failed != 0 || !res.correct {
				t.Errorf("%s traced=%v: %d of %d ops failed, problems %v", sp.name, traced, res.failed, res.attempted, res.problems)
			}
			got := make(map[string]metric)
			for _, m := range res.metrics {
				if _, dup := got[m.name]; dup {
					t.Errorf("%s traced=%v: %s emitted twice", sp.name, traced, m.name)
				}
				if !validName.MatchString(m.name) {
					t.Errorf("%s: metric name %q is not a valid name", sp.name, m.name)
				}
				got[m.name] = m
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", sp.name, traced, len(got), len(want))
			}
			for _, w := range want {
				m, ok := got[w.Name]
				if !ok {
					t.Errorf("%s traced=%v: declared metric %s not emitted", sp.name, traced, w.Name)
				} else if m.unit != w.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", sp.name, w.Name, m.unit, w.Unit)
				}
			}
			if traced {
				if _, err := os.Stat(dir + "/" + sp.name + ".trace.json"); err != nil {
					t.Errorf("%s: traced run wrote no trace: %v", sp.name, err)
				}
			}
		}
	}
}

// TestDeclaredDirections checks the better/bound columns against the
// harness's own tables.
func TestDeclaredDirections(t *testing.T) {
	d := readDeclared(t)
	for _, group := range []struct {
		defs []def
		decl []declared
	}{{endToEnd, d.EndToEnd}, {perLayer, d.PerLayer}} {
		if len(group.defs) != len(group.decl) {
			t.Fatalf("%d metrics in the harness, %d declared", len(group.defs), len(group.decl))
		}
		for i, df := range group.defs {
			if dm := group.decl[i]; dm.Name != df.name || dm.Unit != df.unit || dm.Better != df.better {
				t.Errorf("metric %d: harness has %+v, BENCHMARK.json has %+v", i, df, dm)
			}
		}
	}
	for _, m := range d.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// opsUntilFailure drives one client until an operation fails, within
// a bound: the corrupted expectations below make the first read fail.
func opsUntilFailure(r *run, c *client) int {
	for i := 0; i < 500 && c.rec.failed == 0; i++ {
		r.spec.op(r, c)
	}
	return c.rec.failed
}

// TestVerifierCountsCorruption proves the checker is live: when what
// the harness expects is corrupted, reads that are in fact right are
// counted as failed operations — by checksum for full reads, and byte
// for byte for ranges.
func TestVerifierCountsCorruption(t *testing.T) {
	t.Run("full read by checksum", func(t *testing.T) {
		sp := specByName("checkpoint")
		r, err := setUp(smoke(sp.name, false, ""), sp)
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		c := r.clients[0]
		if got := opsUntilFailure(r, c); got != 0 {
			t.Fatalf("%d failed ops before anything was corrupted", got)
		}
		c.rec = record{}
		for _, o := range c.own {
			o.sum ^= 1
		}
		if opsUntilFailure(r, c) == 0 {
			t.Error("no failed op although every expected checksum was corrupted")
		}
	})
	t.Run("range by bytes", func(t *testing.T) {
		sp := specByName("degraded_range")
		r, err := setUp(smoke(sp.name, false, ""), sp)
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		c := r.clients[0]
		for _, o := range r.objs {
			o.key++
		}
		if opsUntilFailure(r, c) == 0 {
			t.Error("no failed op although every expected stream was corrupted")
		}
	})
}

// TestStreamIsSeekable checks that a range regenerated at an offset is
// the same bytes the sequential reader produced there.
func TestStreamIsSeekable(t *testing.T) {
	o := newObject(3, "name", 2, 1000)
	whole := o.fillBytes(make([]byte, o.size))
	for _, off := range []int64{0, 1, 7, 8, 9, 333, 992, 999} {
		part := make([]byte, min(37, o.size-off))
		o.key.fill(part, off)
		if string(part) != string(whole[off:off+int64(len(part))]) {
			t.Errorf("bytes at offset %d differ from the sequential stream", off)
		}
	}
	var w sumWriter
	w.Write(whole) //nolint:errcheck // cannot fail
	if err := o.checkFull(&w); err != nil {
		t.Error(err)
	}
	if other := newObject(3, "name", 3, 1000); other.key == o.key {
		t.Error("two versions of a name share a stream")
	}
}

func TestQuartilesAndTail(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	lat := make([]time.Duration, 250)
	for i := range lat {
		lat[i] = time.Duration(i + 1)
	}
	// 250 samples: p99 leaves 2 beyond it, p95 leaves 12.
	if v, label := tail(lat); label != "p95" || v != 238 {
		t.Errorf("tail of 250 samples = %v %s, want 238 p95", v, label)
	}
	if _, label := tail(lat[:50]); label != "max" {
		t.Errorf("tail of 50 samples is %s, want max", label)
	}
}
