package sim

import (
	"math"
	"testing"
)

// histDistributions are the random shapes the property test draws from —
// each stresses a different bucket pattern: flat, heavy-tailed, clustered,
// discrete and zero-inflated.
var histDistributions = []struct {
	name string
	gen  func(r *RNG) float64
}{
	{"uniform", func(r *RNG) float64 { return r.Float64() * 1000 }},
	{"exponential", func(r *RNG) float64 { return -math.Log(1-r.Float64()) * 250 }},
	{"pareto", func(r *RNG) float64 { return math.Pow(1-r.Float64(), -1/1.3) }},
	{"lognormal", func(r *RNG) float64 {
		// Sum of uniforms approximates a normal; exponentiate for log-normal.
		s := 0.0
		for i := 0; i < 12; i++ {
			s += r.Float64()
		}
		return math.Exp(s - 6)
	}},
	{"bimodal", func(r *RNG) float64 {
		if r.Intn(2) == 0 {
			return 10 + r.Float64()
		}
		return 10000 + r.Float64()*100
	}},
	{"discrete", func(r *RNG) float64 { return float64(r.Intn(7)) * 100 }},
	{"zero-inflated", func(r *RNG) float64 {
		if r.Intn(3) == 0 {
			return 0
		}
		return r.Float64() * 50
	}},
}

// TestHistogramPercentileErrorBound is the streaming-estimator contract:
// against the exact sort-based Sample.Percentile reference, every reported
// percentile of every distribution stays within the documented ErrorBound
// relative error. Seeds are pinned — the whole suite is deterministic.
func TestHistogramPercentileErrorBound(t *testing.T) {
	percentiles := []float64{1, 10, 25, 50, 75, 90, 95, 99, 99.9}
	sizes := []int{1, 2, 17, 1000, 20000}
	for _, dist := range histDistributions {
		for seedIdx, seed := range []uint64{1, 42, 0xC0FFEE} {
			for _, n := range sizes {
				r := NewRNG(DeriveSeed(seed, uint64(n)))
				h := NewHistogram(0)
				var s Sample
				for i := 0; i < n; i++ {
					v := dist.gen(r)
					h.Add(v)
					s.Add(v)
				}
				if h.N() != s.N() {
					t.Fatalf("%s seed[%d] n=%d: histogram N=%d, sample N=%d", dist.name, seedIdx, n, h.N(), s.N())
				}
				if h.Min() != s.Min() || h.Max() != s.Max() {
					t.Fatalf("%s seed[%d] n=%d: extremes (%v,%v) != exact (%v,%v)",
						dist.name, seedIdx, n, h.Min(), h.Max(), s.Min(), s.Max())
				}
				if math.Abs(h.Sum()-s.Sum()) > 1e-6*math.Abs(s.Sum())+1e-9 {
					t.Fatalf("%s seed[%d] n=%d: Sum %v != %v", dist.name, seedIdx, n, h.Sum(), s.Sum())
				}
				bound := h.ErrorBound()
				for _, p := range percentiles {
					got, want := h.Percentile(p), s.Percentile(p)
					if want == 0 {
						if got != 0 {
							t.Fatalf("%s seed[%d] n=%d p%v: streaming %v for exact 0", dist.name, seedIdx, n, p, got)
						}
						continue
					}
					if rel := math.Abs(got-want) / want; rel > bound {
						t.Fatalf("%s seed[%d] n=%d p%v: streaming %v vs exact %v (relative error %.4f > bound %.4f)",
							dist.name, seedIdx, n, p, got, want, rel, bound)
					}
				}
				// P0 and P100 are exact by construction.
				if h.Percentile(0) != s.Percentile(0) || h.Percentile(100) != s.Percentile(100) {
					t.Fatalf("%s seed[%d] n=%d: P0/P100 not exact", dist.name, seedIdx, n)
				}
			}
		}
	}
}

// TestHistogramEmptyAndZeros: the degenerate cases the verifier leans on.
func TestHistogramEmptyAndZeros(t *testing.T) {
	h := NewHistogram(0)
	if h.Percentile(50) != 0 || h.N() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for i := 0; i < 5; i++ {
		h.Add(0)
	}
	if h.Percentile(50) != 0 || h.Percentile(100) != 0 || h.Min() != 0 {
		t.Fatal("all-zero histogram must report 0 at every percentile")
	}
	h.Add(10)
	if got := h.Percentile(100); got != 10 {
		t.Fatalf("P100 = %v; want the exact max 10", got)
	}
	if got := h.Percentile(50); got != 0 {
		t.Fatalf("P50 of {0,0,0,0,0,10} = %v; want 0", got)
	}
}
