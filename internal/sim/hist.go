package sim

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a streaming percentile estimator: observations land in
// geometrically spaced buckets (bucket i covers [g^i, g^(i+1)) for growth
// factor g), so memory stays O(log(max/min)) no matter how many values
// arrive — the load-test harness records millions of request latencies
// into one of these where a Sample would retain every observation.
//
// Percentile reports the geometric midpoint of the bucket the nearest-rank
// percentile falls in, clamped to the exact observed [min, max]. Because
// bucket assignment is monotone in the value, the rank-selected exact
// observation lies inside the reported bucket, which bounds the relative
// error of every percentile by ErrorBound() = growth-1 (5% at the default
// growth of 1.05; the typical error is the half-bucket sqrt(growth)-1,
// about 2.5%). P0 and P100 are exact: min and max are tracked directly.
//
// Observations must be non-negative (latencies, counts); values <= 0 are
// tallied in a dedicated zero bucket reported exactly as 0. The zero value
// of Histogram is not ready for use — construct with NewHistogram.
type Histogram struct {
	growth  float64
	logG    float64
	count   uint64
	zeros   uint64
	sum     float64
	min     float64
	max     float64
	buckets map[int]uint64
}

// DefaultHistogramGrowth is the bucket growth factor NewHistogram uses when
// given growth <= 1: a 5% worst-case percentile error bound.
const DefaultHistogramGrowth = 1.05

// NewHistogram returns an empty histogram with the given bucket growth
// factor; growth <= 1 selects DefaultHistogramGrowth.
func NewHistogram(growth float64) *Histogram {
	if growth <= 1 {
		growth = DefaultHistogramGrowth
	}
	return &Histogram{
		growth:  growth,
		logG:    math.Log(growth),
		buckets: map[int]uint64{},
	}
}

// Growth returns the bucket growth factor.
func (h *Histogram) Growth() float64 { return h.growth }

// ErrorBound returns the documented worst-case relative error of
// Percentile: growth-1.
func (h *Histogram) ErrorBound() float64 { return h.growth - 1 }

// Add records one observation. Values <= 0 count in the zero bucket.
func (h *Histogram) Add(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if v <= 0 {
		h.zeros++
		return
	}
	h.buckets[h.bucket(v)]++
}

// bucket maps a positive value to its bucket index.
func (h *Histogram) bucket(v float64) int {
	return int(math.Floor(math.Log(v) / h.logG))
}

// N returns the number of observations.
func (h *Histogram) N() int { return int(h.count) }

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation (exact), or 0 when empty.
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest observation (exact), or 0 when empty.
func (h *Histogram) Max() float64 { return h.max }

// Percentile returns the p-th percentile (0 <= p <= 100) with the same
// nearest-rank semantics as Sample.Percentile, to within ErrorBound()
// relative error; 0 for an empty histogram.
func (h *Histogram) Percentile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	cum := h.zeros
	if cum >= rank {
		return h.clamp(0)
	}
	keys := make([]int, 0, len(h.buckets))
	for i := range h.buckets {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	for _, i := range keys {
		cum += h.buckets[i]
		if cum >= rank {
			// Geometric midpoint of bucket i, clamped to the exact extremes.
			return h.clamp(math.Exp((float64(i) + 0.5) * h.logG))
		}
	}
	return h.max
}

// clamp bounds a bucket representative to the observed range, which keeps
// the extreme percentiles exact and never moves a representative out of
// the bucket the true value lies in.
func (h *Histogram) clamp(v float64) float64 {
	if v < h.min {
		return h.min
	}
	if v > h.max {
		return h.max
	}
	return v
}

// String summarizes the histogram for logs and tables.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d p50=%.1f p90=%.1f p99=%.1f max=%.0f",
		h.N(), h.Percentile(50), h.Percentile(90), h.Percentile(99), h.Max())
}
