package service

//simcheck:allow-file nogoroutine -- the test races writers against readers on purpose

import (
	"sync"
	"testing"
)

// TestCountersConsistentUnderConcurrentWriters: every Counters() read, taken
// while Record and RecordJob writers run, is a state the log really passed
// through — the request total equals the sum of its sources — and no counter
// ever steps backwards. Run under -race (make race).
func TestCountersConsistentUnderConcurrentWriters(t *testing.T) {
	const writers, perWriter = 4, 2000
	l := NewMetricLog(16)
	var writing, reading sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			sources := []Source{SourceCache, SourceRun, SourceCoalesced}
			for i := 0; i < perWriter; i++ {
				l.Record(RequestMetric{Source: sources[(w+i)%len(sources)]})
				l.RecordJob(true, i%2 == 0, i%2 == 1)
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			var last Counters
			for {
				c := l.Counters()
				if c.Requests != c.CacheHits+c.Runs+c.Coalesced {
					t.Errorf("torn read: %+v", c)
					return
				}
				if c.Requests < last.Requests || c.CacheHits < last.CacheHits || c.Runs < last.Runs ||
					c.Coalesced < last.Coalesced || c.JobsAccepted < last.JobsAccepted ||
					c.JobsCompleted < last.JobsCompleted || c.JobsFailed < last.JobsFailed {
					t.Errorf("counters went backwards: %+v after %+v", c, last)
					return
				}
				last = c
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	writing.Wait()
	close(stop)
	reading.Wait()
	c := l.Counters()
	if c.Requests != writers*perWriter || c.JobsAccepted != writers*perWriter || c.JobsCompleted+c.JobsFailed != writers*perWriter {
		t.Errorf("final counters %+v; want %d requests and jobs", c, writers*perWriter)
	}
	if snap, rows := l.Snapshot(); snap != c || len(rows) != 16 {
		t.Errorf("Snapshot = %+v with %d rows; want Counters()'s %+v and the 16 retained rows", snap, len(rows), c)
	}
}
