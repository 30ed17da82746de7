package load

import (
	"strconv"
	"testing"
)

// studyGolden pins the default cache-sizing study byte for byte: the trace
// is a pure function of (seed, exponent, universe, requests) and the LRU is
// the daemon's production MemoryStore, so any drift here is either an RNG
// change or an eviction-policy change — both are release notes, not noise.
const studyGolden = `zipf,capacity,requests,hits,hit_rate
0.600,16,4000,291,0.073
0.600,64,4000,965,0.241
0.600,256,4000,2519,0.630
1.000,16,4000,1285,0.321
1.000,64,4000,2259,0.565
1.000,256,4000,3290,0.823
1.400,16,4000,2782,0.696
1.400,64,4000,3464,0.866
1.400,256,4000,3729,0.932
`

// TestCacheStudyGolden: the default study (>= 3 Zipf exponents, 3
// capacities) renders exactly the pinned table.
func TestCacheStudyGolden(t *testing.T) {
	got := CacheStudy(StudyConfig{Seed: 1}).CSV()
	if got != studyGolden {
		t.Fatalf("study table drifted.\ngot:\n%s\nwant:\n%s", got, studyGolden)
	}
}

// TestCacheStudyMonotone: hit rate must not decrease with capacity (same
// trace, strictly larger cache) and, at these configs, grows with skew.
func TestCacheStudyMonotone(t *testing.T) {
	cfg := StudyConfig{
		Seed: 7, Universe: 256, Requests: 3000,
		Exponents: []float64{0.5, 0.9, 1.3, 1.7}, Capacities: []int{8, 32, 128},
	}
	tab := CacheStudy(cfg)
	if tab.Rows() != len(cfg.Exponents)*len(cfg.Capacities) {
		t.Fatalf("%d rows; want %d", tab.Rows(), len(cfg.Exponents)*len(cfg.Capacities))
	}
	rate := func(row int) float64 {
		v, err := strconv.ParseFloat(tab.Cell(row, 4), 64)
		if err != nil {
			t.Fatalf("row %d hit_rate: %v", row, err)
		}
		return v
	}
	nCaps := len(cfg.Capacities)
	for e := 0; e < len(cfg.Exponents); e++ {
		for c := 1; c < nCaps; c++ {
			lo, hi := rate(e*nCaps+c-1), rate(e*nCaps+c)
			if hi < lo {
				t.Fatalf("exponent %v: hit rate fell from %.3f to %.3f as capacity grew",
					cfg.Exponents[e], lo, hi)
			}
		}
	}
	// Across exponents at fixed capacity, more skew = more hits here.
	for c := 0; c < nCaps; c++ {
		for e := 1; e < len(cfg.Exponents); e++ {
			lo, hi := rate((e-1)*nCaps+c), rate(e*nCaps+c)
			if hi <= lo {
				t.Fatalf("capacity %d: hit rate not increasing in skew (%.3f -> %.3f)",
					cfg.Capacities[c], lo, hi)
			}
		}
	}
}
