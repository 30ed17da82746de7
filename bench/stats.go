//simcheck:allow-file determinism,nogoroutine -- the benchmark's own ruler: wall clock, getrusage and exact percentiles, kept apart from internal/load and sim.Histogram so a change there cannot move it

package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns an exact p-quantile (0 < p <= 1) of an ascending
// sample: the smallest sample value with more than p of the sample at or
// below it, sorted[floor(p*n)] (the maximum for p = 1). For p = 0.5 that is
// the upper median. No interpolation and no histogram: the value is always
// one that was measured. It panics on an empty sample — a window that timed
// nothing is a benchmark bug.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		panic("bench: percentile of an empty sample")
	}
	rank := int(math.Floor(p * float64(len(sorted))))
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// sortedCopy returns the sample in ascending order, leaving the input alone.
func sortedCopy(sample []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), sample...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median returns the middle value of a small float sample (mean of the two
// middle values for an even count).
func median(values []float64) float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// usage is one getrusage + memstats reading of this process.
type usage struct {
	cpu     time.Duration // user + system
	maxRSS  float64       // MiB, the process high-water mark
	gcPause time.Duration
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("bench: getrusage: " + err.Error())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{
		cpu:     tv(ru.Utime) + tv(ru.Stime),
		maxRSS:  float64(ru.Maxrss) / 1024, // Linux reports KiB
		gcPause: time.Duration(ms.PauseTotalNs),
	}
}
