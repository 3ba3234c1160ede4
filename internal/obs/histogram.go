package obs

// Fixed-boundary latency histograms: the native instrument behind the
// serving stack's p50/p95/p99. A Histogram is a set of log-spaced
// upper-bound buckets plus an exact sum and count, all updated with
// atomics, so Observe is lock-free and safe from any goroutine. Like
// every obs instrument the nil *Histogram is a valid no-op sink.
//
// Buckets use Prometheus `le` semantics: bucket i counts observations
// v <= Bounds[i]; one implicit overflow bucket (+Inf) catches the rest.
// Histograms with identical boundaries merge bucket-wise, which is how
// per-job registries fold into the serve layer's per-strategy and "all"
// aggregates.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// LatencyBounds returns the canonical log-spaced latency boundaries (in
// seconds) of the catalog's request/solve/queue/commit histograms:
// 1-2.5-5 per decade from 100µs to 100s. The slice is fresh per call;
// callers may keep it.
func LatencyBounds() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005,
		0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05,
		0.1, 0.25, 0.5,
		1, 2.5, 5,
		10, 25, 50,
		100,
	}
}

// LogBounds returns n log-spaced boundaries starting at min, each
// subsequent boundary perDecade-th of a decade above the previous one
// (perDecade boundaries per factor-of-ten). The load harness uses a
// denser grid than LatencyBounds so interpolated percentiles stay sharp
// at sub-millisecond scale.
func LogBounds(min float64, perDecade, n int) []float64 {
	bounds := make([]float64, n)
	step := math.Pow(10, 1/float64(perDecade))
	v := min
	for i := range bounds {
		bounds[i] = v
		v *= step
	}
	return bounds
}

// Histogram is a fixed-boundary, atomically updated histogram. Create
// with NewHistogram (or Registry.Histogram for catalog instruments); the
// nil histogram is a valid no-op sink.
type Histogram struct {
	bounds []float64      // ascending upper bounds (le), immutable
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram returns a histogram over the given ascending upper
// bounds. nil or empty bounds select LatencyBounds.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBounds()
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(h.bounds)+1)
	return h
}

// Observe records one value (seconds, for the latency instruments).
// No-op on a nil histogram. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: the le bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, new) {
			return
		}
	}
}

// ObserveSince records the elapsed wall-clock seconds since t0. No-op on
// a nil histogram or a zero t0 (the "not measuring" sentinel).
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil || t0.IsZero() {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the total number of observations; 0 on nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the exact sum of all observations; 0 on nil.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Snapshot exports the current state. The export is not atomic across
// buckets — concurrent Observes may straddle it — which is fine for the
// statistics use it serves. A nil histogram yields a zero snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    h.Sum(),
		Count:  h.Count(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Merge folds a snapshot into the histogram bucket-wise. The snapshot
// must have been taken from a histogram with identical boundaries;
// mismatched layouts are rejected so an aggregate can never silently
// mix incompatible bucket grids.
func (h *Histogram) Merge(s HistogramSnapshot) error {
	if h == nil || s.Count == 0 && s.Sum == 0 {
		return nil
	}
	if len(s.Counts) != len(h.counts) || !slices.Equal(s.Bounds, h.bounds) {
		return fmt.Errorf("obs: merging histogram with bounds %v into %v", s.Bounds, h.bounds)
	}
	for i, n := range s.Counts {
		h.counts[i].Add(n)
	}
	h.count.Add(s.Count)
	for {
		old := h.sum.Load()
		new := math.Float64bits(math.Float64frombits(old) + s.Sum)
		if h.sum.CompareAndSwap(old, new) {
			return nil
		}
	}
}

// HistogramSnapshot is the serialized form of a histogram: the bucket
// boundaries, the per-bucket (non-cumulative) counts with the +Inf
// overflow bucket last, and the exact sum/count.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation within the bucket holding the target rank. The lower
// edge of the first bucket is taken as 0; ranks landing in the +Inf
// bucket report the highest finite boundary. Returns 0 on an empty
// histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, n := range s.Counts {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			return lo + (s.Bounds[i]-lo)*(rank-cum)/float64(n)
		}
		cum = next
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Mean returns the exact mean of the observations (Sum/Count), 0 when
// empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}
