package sweep

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress is a snapshot of a running sweep, delivered to
// Options.OnProgress after every completed point.
type Progress struct {
	// Done and Total count points.
	Done, Total int
	// Partial counts points stopped early by timeout or cancellation.
	Partial int
	// Last is the most recently completed point.
	Last Point
	// Elapsed is wall-clock time since Run started.
	Elapsed time.Duration
	// PointsPerSec is the throughput so far.
	PointsPerSec float64
}

// String renders a one-line status suitable for a terminal.
func (p Progress) String() string {
	s := fmt.Sprintf("%d/%d points", p.Done, p.Total)
	if p.Partial > 0 {
		s += fmt.Sprintf(" (%d partial)", p.Partial)
	}
	if p.PointsPerSec > 0 && p.PointsPerSec < 1e9 {
		s += fmt.Sprintf(", %.1f points/s", p.PointsPerSec)
		if remaining := p.Total - p.Done; remaining > 0 {
			eta := time.Duration(float64(remaining)/p.PointsPerSec*1e9) * time.Nanosecond
			s += fmt.Sprintf(", ~%s left", eta.Round(time.Second))
		}
	}
	s += fmt.Sprintf(" [last: %s k=%d d=%d]", p.Last.Scheme, p.Last.K, p.Last.D)
	return s
}

// Reporter returns an OnProgress callback that writes a status line to w,
// rate-limited to one line per interval (the final update always prints).
// Point results on stdout stay byte-identical whether or not a reporter is
// attached as long as w is a different stream (conventionally stderr).
func Reporter(w io.Writer, interval time.Duration) func(Progress) {
	var mu sync.Mutex
	var last time.Time
	return func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now() //simcheck:allow determinism -- operator-facing progress throttle, not simulation state
		if p.Done < p.Total && now.Sub(last) < interval {
			return
		}
		last = now
		fmt.Fprintf(w, "sweep: %s\n", p)
	}
}
