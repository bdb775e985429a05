package telemetry

import (
	"sync/atomic"
	"testing"
)

// Overhead guard: the instrumented hot path vs the no-op (nil
// registry) hot path vs a bare atomic add. The deltas here are what
// every instrumented call site in wire/node/gateway pays per record.
// TestRecordingAllocFree asserts the zero-allocation property.

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "bench")
	b.ReportAllocs()
	for b.Loop() {
		c.Add(1)
	}
}

func BenchmarkCounterAddNoop(b *testing.B) {
	var r *Registry
	c := r.Counter("bench_total", "bench")
	b.ReportAllocs()
	for b.Loop() {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "bench")
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		h.Observe(int64(i) * 31)
	}
}

func BenchmarkHistogramObserveNoop(b *testing.B) {
	var r *Registry
	h := r.Histogram("bench_seconds", "bench")
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		h.Observe(int64(i) * 31)
	}
}

// BenchmarkBareAtomicAdd is the floor: what a counter add would cost
// with no abstraction at all.
func BenchmarkBareAtomicAdd(b *testing.B) {
	var v atomic.Int64
	b.ReportAllocs()
	for b.Loop() {
		v.Add(1)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			i++
			h.Observe(i * 31)
		}
	})
}

func BenchmarkSnapshot(b *testing.B) {
	r := NewRegistry()
	for _, op := range []string{"store", "fetch", "delete", "stat"} {
		r.Counter("bench_ops_total", "ops", "op", op).Add(100)
		h := r.Histogram("bench_seconds", "latency", "op", op)
		for i := int64(0); i < 1000; i++ {
			h.Observe(i * 1000)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		r.Snapshot()
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for _, op := range []string{"store", "fetch", "delete", "stat"} {
		r.Counter("bench_ops_total", "ops", "op", op).Add(100)
		h := r.Histogram("bench_seconds", "latency", "op", op)
		for i := int64(0); i < 1000; i++ {
			h.Observe(i * 1000)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		WritePrometheus(discard{}, r) //nolint:errcheck
	}
}
