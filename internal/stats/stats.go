// Package stats provides the small statistical toolkit the experiment
// harness uses: accumulators for mean/standard deviation, extrema,
// quantiles, and fixed-interval series sampling for figure output.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Acc accumulates scalar observations and reports summary statistics.
// The zero value is ready to use.
type Acc struct {
	n          int
	sum, sumSq float64
	min, max   float64
}

// Add records one observation.
func (a *Acc) Add(x float64) {
	if a.n == 0 || x < a.min {
		a.min = x
	}
	if a.n == 0 || x > a.max {
		a.max = x
	}
	a.n++
	a.sum += x
	a.sumSq += x * x
}

// AddN records the same observation n times.
func (a *Acc) AddN(x float64, n int) {
	for i := 0; i < n; i++ {
		a.Add(x)
	}
}

// N returns the number of observations.
func (a *Acc) N() int { return a.n }

// Sum returns the sum of all observations.
func (a *Acc) Sum() float64 { return a.sum }

// Mean returns the arithmetic mean, or 0 with no observations.
func (a *Acc) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// Var returns the population variance, or 0 with fewer than 2 observations.
func (a *Acc) Var() float64 {
	if a.n < 2 {
		return 0
	}
	m := a.Mean()
	v := a.sumSq/float64(a.n) - m*m
	if v < 0 { // numerical noise
		return 0
	}
	return v
}

// StdDev returns the population standard deviation.
func (a *Acc) StdDev() float64 { return math.Sqrt(a.Var()) }

// Min returns the smallest observation, or 0 with no observations.
func (a *Acc) Min() float64 { return a.min }

// Max returns the largest observation, or 0 with no observations.
func (a *Acc) Max() float64 { return a.max }

// String summarises the accumulator for logs.
func (a *Acc) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f",
		a.n, a.Mean(), a.StdDev(), a.min, a.max)
}

// Merge folds the observations of b into a.
func (a *Acc) Merge(b *Acc) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n += b.n
	a.sum += b.sum
	a.sumSq += b.sumSq
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs need not be sorted; it is
// not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Series collects (x, y) points sampled at intervals, averaging y values
// that land on the same x across repeated runs. It renders the data rows
// behind the paper's line figures.
type Series struct {
	Name string
	xs   []float64
	ys   map[float64]*Acc
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series {
	return &Series{Name: name, ys: make(map[float64]*Acc)}
}

// Observe records y at sample point x. Repeated observations at the same
// x (e.g. from different seeds) are averaged.
func (s *Series) Observe(x, y float64) {
	a, ok := s.ys[x]
	if !ok {
		a = &Acc{}
		s.ys[x] = a
		s.xs = append(s.xs, x)
	}
	a.Add(y)
}

// Points returns the sample points in ascending x order with mean y.
func (s *Series) Points() (xs, ys []float64) {
	xs = append([]float64(nil), s.xs...)
	sort.Float64s(xs)
	ys = make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = s.ys[x].Mean()
	}
	return xs, ys
}

// Len returns the number of distinct sample points.
func (s *Series) Len() int { return len(s.xs) }

// YAt returns the mean y recorded at sample point x, and whether any
// observation exists there.
func (s *Series) YAt(x float64) (float64, bool) {
	a, ok := s.ys[x]
	if !ok {
		return 0, false
	}
	return a.Mean(), true
}

// Last returns the y value at the largest sample point, or 0 if empty.
func (s *Series) Last() float64 {
	xs, ys := s.Points()
	if len(xs) == 0 {
		return 0
	}
	return ys[len(ys)-1]
}
