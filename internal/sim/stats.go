package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Sample accumulates scalar observations and reports summary statistics.
// The zero value is an empty sample ready for use.
type Sample struct {
	values []float64
	sum    float64
	min    float64
	max    float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	if len(s.values) == 0 || v < s.min {
		s.min = v
	}
	if len(s.values) == 0 || v > s.max {
		s.max = v
	}
	s.values = append(s.values, v)
	s.sum += v
}

// AddTime records a Time observation.
func (s *Sample) AddTime(t Time) { s.Add(float64(t)) }

// Values returns the observations in insertion order. The slice is a copy.
func (s *Sample) Values() []float64 {
	return append([]float64(nil), s.values...)
}

// MarshalJSON encodes the sample as its raw observation array, which is the
// full state: sum, min and max are derived on decode. Used by the result
// store's format.
func (s Sample) MarshalJSON() ([]byte, error) {
	if s.values == nil {
		return []byte("[]"), nil
	}
	return json.Marshal(s.values)
}

// UnmarshalJSON decodes an observation array produced by MarshalJSON.
func (s *Sample) UnmarshalJSON(data []byte) error {
	var values []float64
	if err := json.Unmarshal(data, &values); err != nil {
		return err
	}
	*s = Sample{}
	for _, v := range values {
		s.Add(v)
	}
	return nil
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Sum returns the total of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 { return s.max }

// StdDev returns the population standard deviation, or 0 when fewer than
// two observations exist.
func (s *Sample) StdDev() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, v := range s.values {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on a sorted copy, or 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// String summarizes the sample for logs and tables.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.1f min=%.0f max=%.0f sd=%.1f",
		s.N(), s.Mean(), s.Min(), s.Max(), s.StdDev())
}

// Counter is a monotonically increasing tally.
type Counter struct {
	n uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds delta to the counter.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }
