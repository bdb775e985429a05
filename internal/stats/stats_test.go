package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccBasics(t *testing.T) {
	var a Acc
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d, want 8", a.N())
	}
	if !almostEq(a.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %g, want 5", a.Mean())
	}
	if !almostEq(a.StdDev(), 2, 1e-12) {
		t.Errorf("StdDev = %g, want 2", a.StdDev())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("Min/Max = %g/%g, want 2/9", a.Min(), a.Max())
	}
	if a.Sum() != 40 {
		t.Errorf("Sum = %g, want 40", a.Sum())
	}
}

func TestAccEmpty(t *testing.T) {
	var a Acc
	if a.Mean() != 0 || a.StdDev() != 0 || a.Var() != 0 {
		t.Error("empty Acc should report zeros")
	}
}

func TestAccAddN(t *testing.T) {
	var a, b Acc
	a.AddN(3, 5)
	for i := 0; i < 5; i++ {
		b.Add(3)
	}
	if a.N() != b.N() || a.Sum() != b.Sum() {
		t.Error("AddN disagrees with repeated Add")
	}
}

func TestAccMerge(t *testing.T) {
	var a, b, all Acc
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		x := rng.Float64() * 10
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
		all.Add(x)
	}
	a.Merge(&b)
	if a.N() != all.N() || !almostEq(a.Mean(), all.Mean(), 1e-9) ||
		!almostEq(a.StdDev(), all.StdDev(), 1e-9) ||
		a.Min() != all.Min() || a.Max() != all.Max() {
		t.Errorf("Merge mismatch: %v vs %v", a.String(), all.String())
	}
}

func TestAccMergeEmpty(t *testing.T) {
	var a, empty Acc
	a.Add(1)
	a.Merge(&empty)
	if a.N() != 1 {
		t.Error("merging empty changed Acc")
	}
	var c Acc
	c.Merge(&a)
	if c.N() != 1 || c.Mean() != 1 {
		t.Error("merging into empty failed")
	}
}

// Property: mean lies within [min, max] and variance is non-negative.
func TestAccBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var a Acc
		for _, x := range xs {
			if math.IsNaN(x) || math.Abs(x) > 1e12 {
				return true // sumSq would overflow; Acc targets measurement-scale data
			}
			a.Add(x)
		}
		if a.N() == 0 {
			return true
		}
		return a.Mean() >= a.Min()-1e-9 && a.Mean() <= a.Max()+1e-9 && a.Var() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %g", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %g", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %g", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %g", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %g", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("failures")
	s.Observe(10, 1)
	s.Observe(20, 4)
	s.Observe(10, 3) // second seed at same x
	xs, ys := s.Points()
	if len(xs) != 2 || xs[0] != 10 || xs[1] != 20 {
		t.Fatalf("xs = %v", xs)
	}
	if ys[0] != 2 || ys[1] != 4 {
		t.Fatalf("ys = %v", ys)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if y, ok := s.YAt(10); !ok || y != 2 {
		t.Errorf("YAt(10) = %g, %v", y, ok)
	}
	if _, ok := s.YAt(99); ok {
		t.Error("YAt on missing x reported ok")
	}
	if s.Last() != 4 {
		t.Errorf("Last = %g, want 4", s.Last())
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries("empty")
	if s.Last() != 0 {
		t.Error("empty series Last should be 0")
	}
	xs, ys := s.Points()
	if len(xs) != 0 || len(ys) != 0 {
		t.Error("empty series should return empty points")
	}
}
