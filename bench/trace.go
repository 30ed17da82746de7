//simcheck:allow-file determinism,nogoroutine -- spans are wall-clock intervals recorded from client and server goroutines by design

package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. ID is 1-based (0 means
// "no span"); Parent is the span that caused this one; Op is the operation
// (request, sweep point, run) all spans of one unit of work share.
type span struct {
	ID, Parent int32
	Op         int32
	Name       string
	Start, End int64 // ns since the tracer's origin
}

// tracer records spans into a pre-sized slice: begin claims the next slot
// with one atomic add, so client goroutines, sweep workers and the daemon's
// engine workers record without a lock. A nil tracer is the tracing-off
// state: begin returns 0 and end ignores it, so call sites need no branch.
// Spans are read only after every recording goroutine has been waited for.
type tracer struct {
	origin  time.Time
	spans   []span
	next    atomic.Int32
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) begin(parent, op int32, name string) int32 {
	if t == nil {
		return 0
	}
	i := t.next.Add(1)
	if int(i) > len(t.spans) {
		t.dropped.Add(1)
		return 0
	}
	t.spans[i-1] = span{ID: i, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.origin))}
	return i
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.origin))
}

// recorded returns the spans written so far.
func (t *tracer) recorded() []span {
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// spanStats aggregates one span name.
type spanStats struct {
	count int64
	total time.Duration // sum of durations
	self  time.Duration // total minus the part child spans cover
}

// spanSummary maps span name to its aggregate.
type spanSummary map[string]*spanStats

// get returns the aggregate of a name, zero when no such span was recorded.
func (s spanSummary) get(name string) *spanStats {
	if st := s[name]; st != nil {
		return st
	}
	return &spanStats{}
}

// analyze computes, per span name, the count, the total duration and the
// self time: a span's duration minus the union of its children's intervals
// clipped to it. Overlapping children (two store probes of one request
// racing) are counted once.
func analyze(spans []span) spanSummary {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := spanSummary{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		dur := s.End - s.Start
		st.count++
		st.total += time.Duration(dur)
		st.self += time.Duration(dur - covered(spans, s, children[s.ID]))
	}
	return out
}

// covered returns the length of the union of the kids' intervals inside
// parent's interval.
func covered(spans []span, parent span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, id := range kids {
		k := spans[id-1]
		a, b := k.Start, k.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		total += v.b - v.a
		end = v.b
	}
	return total
}

// lanes assigns every span a display lane: the children of the root are
// packed greedily onto the fewest lanes with no overlap (which recovers the
// worker or client that ran them, since each runs one op at a time), and
// deeper spans inherit their ancestor's lane. It returns the lane per span
// index and the time each lane last went idle.
func lanes(spans []span, root int32) (lane []int, lastEnd []int64) {
	lane = make([]int, len(spans))
	top := make([]int, 0, len(spans))
	for i, s := range spans {
		if s.Parent == root && s.ID != root {
			top = append(top, i)
		}
	}
	sort.Slice(top, func(i, j int) bool { return spans[top[i]].Start < spans[top[j]].Start })
	for _, i := range top {
		placed := false
		for l := range lastEnd {
			if lastEnd[l] <= spans[i].Start {
				lane[i], lastEnd[l], placed = l, spans[i].End, true
				break
			}
		}
		if !placed {
			lane[i] = len(lastEnd)
			lastEnd = append(lastEnd, spans[i].End)
		}
	}
	// Spans are recorded in begin order, so a parent always precedes its
	// children in the slice: one forward pass propagates lanes.
	for i, s := range spans {
		if s.Parent != root && s.Parent != 0 {
			lane[i] = lane[s.Parent-1]
		}
	}
	return lane, lastEnd
}

// tailIdleShare is the share of worker-seconds spent idle after the last op
// was handed out: the sum over lanes of (window end - lane's last end), over
// lanes x window.
func tailIdleShare(spans []span, root int32) float64 {
	if root == 0 || int(root) > len(spans) {
		return 0
	}
	_, lastEnd := lanes(spans, root)
	if len(lastEnd) == 0 {
		return 0
	}
	var end int64
	for _, e := range lastEnd {
		if e > end {
			end = e
		}
	}
	win := end - spans[root-1].Start
	if win <= 0 {
		return 0
	}
	var idle int64
	for _, e := range lastEnd {
		idle += end - e
	}
	return float64(idle) / float64(win*int64(len(lastEnd)))
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (complete
// "X" events, microsecond timestamps), which Perfetto and chrome://tracing
// open directly — the same viewer wormtrace's export targets.
func writeChromeTrace(path string, spans []span, root int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	lane, _ := lanes(spans, root)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"cat\":\"bench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}",
			s.Name, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, lane[i], s.ID, s.Parent, s.Op)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
