// Package telemetry is the runtime metrics substrate of the live
// implementation: a dependency-free registry of lock-free counters,
// gauges, and log-bucketed latency histograms, cheap enough to leave
// on in production hot paths. Its histogram is the repository's only
// one: internal/stats stays the offline analysis tool (moments,
// quantiles, series for figures); telemetry is what a running node,
// client, or gateway records into on every operation.
//
// Recording is one atomic add: counters and gauges are single
// atomic.Int64 cells, and a histogram observation increments exactly
// one of its log-spaced buckets. No locks, no allocation, no
// time-windowing — aggregation happens at snapshot time, off the hot
// path. Snapshots are mergeable (across histograms, across registries,
// across processes) and reduce to p50/p95/p99/p99.9 with a bounded
// relative error of 1/16 (6.25%) from the bucketing.
//
// Every method is nil-receiver safe: a nil *Registry hands out nil
// metrics whose Add/Set/Observe are no-ops, so a component can thread
// an optional registry through without guarding every record site —
// and the no-op path is what the overhead benchmarks compare against.
package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value. No-op on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by n (negative to decrease). No-op on nil.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram bucketing: values below 2·histSub land in exact unit
// buckets; above that, each power-of-two octave splits into histSub
// log-spaced sub-buckets, so the relative width of any bucket is at
// most 1/histSub. With histSubBits=4 that is 960 buckets covering all
// of int64 at ≤6.25% relative error — 7.5 KiB of atomics per
// histogram, one atomic add per observation.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	numBuckets  = (62-histSubBits)*histSub + 2*histSub
)

// Histogram is a log-bucketed distribution of int64 values. Latency
// histograms record nanoseconds (see Since); the Prometheus exposition
// renders their bucket bounds in seconds.
type Histogram struct {
	counts [numBuckets]atomic.Int64
}

// bucketOf maps a value to its bucket index. Negative values clamp
// into bucket 0.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 2*histSub {
		return int(v)
	}
	b := bits.Len64(uint64(v)) - 1 // v ∈ [2^b, 2^(b+1))
	sub := int((uint64(v) >> (uint(b) - histSubBits)) & (histSub - 1))
	return (b-histSubBits+1)*histSub + sub
}

// bucketBounds returns the inclusive value range [lo, hi] of a bucket.
func bucketBounds(idx int) (lo, hi int64) {
	if idx < 2*histSub {
		return int64(idx), int64(idx)
	}
	b := uint(histSubBits + idx/histSub - 1)
	sub := int64(idx % histSub)
	lo = (histSub + sub) << (b - histSubBits)
	return lo, lo + (1 << (b - histSubBits)) - 1
}

// Observe records one value: a single atomic add. No-op on nil.
func (h *Histogram) Observe(v int64) {
	if h != nil {
		h.counts[bucketOf(v)].Add(1)
	}
}

// Since records the nanoseconds elapsed from start. No-op on nil.
func (h *Histogram) Since(start time.Time) {
	if h != nil {
		h.Observe(int64(time.Since(start)))
	}
}

// Bucket is one non-empty histogram bucket: Count observations whose
// values fell in [Lo, Hi].
type Bucket struct {
	Lo, Hi int64
	Count  int64
}

// HistogramSnapshot is a point-in-time copy of a histogram: the
// non-empty buckets in ascending value order. Snapshots merge
// associatively and commutatively (Merge), so per-shard or per-process
// histograms aggregate without precision loss beyond the shared
// bucketing.
type HistogramSnapshot struct {
	Count   int64
	Sum     int64 // approximate: bucket midpoints × counts
	Buckets []Bucket
}

// Snapshot copies the histogram's current state. Concurrent Observes
// may or may not be included; each bucket count is individually
// consistent (no torn reads).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		s.Buckets = append(s.Buckets, Bucket{Lo: lo, Hi: hi, Count: n})
		s.Count += n
		s.Sum += n * (lo + (hi-lo)/2)
	}
	return s
}

// Merge combines two snapshots into one, as if every observation of
// both had landed in a single histogram. Merge is associative and
// commutative; the zero HistogramSnapshot is its identity.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum}
	out.Buckets = make([]Bucket, 0, len(s.Buckets)+len(o.Buckets))
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Lo < o.Buckets[j].Lo):
			out.Buckets = append(out.Buckets, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || o.Buckets[j].Lo < s.Buckets[i].Lo:
			out.Buckets = append(out.Buckets, o.Buckets[j])
			j++
		default: // same bucket
			b := s.Buckets[i]
			b.Count += o.Buckets[j].Count
			out.Buckets = append(out.Buckets, b)
			i++
			j++
		}
	}
	return out
}

// Quantile estimates the q-th quantile (q in [0, 1]) as the upper
// bound of the bucket holding that rank — an estimate within one
// bucket width (≤6.25% relative) above the true order statistic.
// Returns 0 on an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.Count-1))
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum > rank {
			return b.Hi
		}
	}
	return s.Buckets[len(s.Buckets)-1].Hi
}

// Max returns the upper bound of the highest non-empty bucket (0 when
// empty) — the largest observation, up to one bucket width.
func (s HistogramSnapshot) Max() int64 {
	if len(s.Buckets) == 0 {
		return 0
	}
	return s.Buckets[len(s.Buckets)-1].Hi
}

// metricKind tags a family's metric type.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered instrument with its rendered label set.
type metric struct {
	labels string // rendered `k="v",...` (empty for unlabeled)
	c      *Counter
	g      *Gauge
	fn     func() int64
	h      *Histogram
}

// family groups every metric sharing one name: one HELP/TYPE block in
// the exposition, one or more label sets underneath.
type family struct {
	name, help string
	kind       metricKind
	metrics    map[string]*metric // rendered labels → metric
	order      []string           // registration order of label sets
}

// Registry holds a set of metric families. Registration
// (Counter/Gauge/Histogram/...) takes a lock and is get-or-create by
// (name, labels); callers resolve their instruments once, up front,
// and the hot path touches only the returned instrument's atomics.
// A nil *Registry hands out nil instruments — the no-op mode.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels turns alternating key, value pairs into the canonical
// `k="v",...` form used both as the registry key and in exposition.
// Values are escaped per the Prometheus text format.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("telemetry: labels must be alternating key, value pairs")
	}
	out := ""
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			out += ","
		}
		out += labels[i] + `="` + escapeLabel(labels[i+1]) + `"`
	}
	return out
}

// get resolves (name, labels) to its metric, creating family and
// metric on first use. A name re-registered at a different kind
// panics: two instruments cannot share one exposition family.
func (r *Registry) get(name, help string, kind metricKind, labels []string) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, metrics: make(map[string]*metric)}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as both %s and %s", name, f.kind, kind))
	}
	ls := renderLabels(labels)
	m := f.metrics[ls]
	if m == nil {
		m = &metric{labels: ls}
		switch kind {
		case kindCounter:
			m.c = new(Counter)
		case kindGauge:
			m.g = new(Gauge)
		case kindHistogram:
			m.h = new(Histogram)
		}
		f.metrics[ls] = m
		f.order = append(f.order, ls)
	}
	return m
}

// Counter returns the counter registered under name with the given
// alternating key, value label pairs, creating it on first use. Nil on
// a nil registry.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, help, kindCounter, labels).c
}

// Gauge returns the gauge registered under name and labels, creating
// it on first use. Nil on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, help, kindGauge, labels).g
}

// Histogram returns the histogram registered under name and labels,
// creating it on first use. Histograms record nanoseconds; exposition
// renders seconds, so name them *_seconds. Nil on a nil registry.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, help, kindHistogram, labels).h
}

// CounterFunc registers a counter whose value is read from fn at
// snapshot and exposition time — for mirroring counters a component
// already maintains (monotonic values only). No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...string) {
	if r == nil {
		return
	}
	r.get(name, help, kindCounterFunc, labels).fn = fn
}

// GaugeFunc registers a gauge read from fn at snapshot and exposition
// time — for instantaneous values derived from existing state (queue
// depths, bytes held). No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...string) {
	if r == nil {
		return
	}
	r.get(name, help, kindGaugeFunc, labels).fn = fn
}

// Snapshot is a point-in-time copy of a registry: counters and gauges
// keyed by their full name (`name{labels}`), histograms likewise.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Merge combines two snapshots: counters and gauges sum, histograms
// bucket-merge. Associative and commutative; the empty Snapshot is the
// identity.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)+len(o.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)+len(o.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)+len(o.Histograms)),
	}
	for k, v := range s.Counters {
		out.Counters[k] = v
	}
	for k, v := range o.Counters {
		out.Counters[k] += v
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range o.Gauges {
		out.Gauges[k] += v
	}
	for k, v := range s.Histograms {
		out.Histograms[k] = v
	}
	for k, v := range o.Histograms {
		out.Histograms[k] = out.Histograms[k].Merge(v)
	}
	return out
}

// fullName renders a metric's map key: name alone, or name{labels}.
func fullName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// Snapshot copies every registered metric's current value. Empty (but
// non-nil) maps on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	for _, f := range r.snapshotFamilies() {
		for _, ls := range f.order {
			m := f.metrics[ls]
			key := fullName(f.name, m.labels)
			switch f.kind {
			case kindCounter:
				s.Counters[key] = m.c.Value()
			case kindCounterFunc:
				s.Counters[key] = m.fn()
			case kindGauge:
				s.Gauges[key] = m.g.Value()
			case kindGaugeFunc:
				s.Gauges[key] = m.fn()
			case kindHistogram:
				s.Histograms[key] = m.h.Snapshot()
			}
		}
	}
	return s
}

// snapshotFamilies copies the family list (and each family's label
// order and metric table) under the registration lock, so iteration
// runs unlocked — value reads are atomic, and fn callbacks may take
// their own locks. The metric table is copied, not shared: get inserts
// into the live one whenever a new label set is first used.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		f := r.families[name]
		cp := &family{name: f.name, help: f.help, kind: f.kind, metrics: make(map[string]*metric, len(f.metrics))}
		for ls, m := range f.metrics {
			cp.metrics[ls] = m
		}
		cp.order = append([]string(nil), f.order...)
		out = append(out, cp)
	}
	return out
}

// SortedKeys returns a snapshot map's keys in sorted order — for
// deterministic rendering in tests and status dumps.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
