package metrics

import (
	"testing"

	"repro/internal/sim"
)

func TestInvalRecordLatency(t *testing.T) {
	r := InvalRecord{Start: 100, End: 350}
	if r.Latency() != 250 {
		t.Fatalf("Latency = %d, want 250", r.Latency())
	}
}

func TestCollectorAggregates(t *testing.T) {
	c := NewCollector(4)
	c.Invals = append(c.Invals,
		InvalRecord{Start: 0, End: 100, Sharers: 4, Groups: 2, HomeMsgs: 6},
		InvalRecord{Start: 50, End: 250, Sharers: 8, Groups: 4, HomeMsgs: 12},
	)
	lat := c.InvalLatency()
	if lat.N() != 2 || lat.Mean() != 150 {
		t.Fatalf("InvalLatency = %v", lat)
	}
	if got := c.HomeMsgsPerInval(); got != 9 {
		t.Fatalf("HomeMsgsPerInval = %v, want 9", got)
	}
	if got := c.GroupsPerInval(); got != 3 {
		t.Fatalf("GroupsPerInval = %v, want 3", got)
	}
}

func TestCollectorEmptySafe(t *testing.T) {
	c := NewCollector(2)
	if c.HomeMsgsPerInval() != 0 || c.GroupsPerInval() != 0 {
		t.Fatal("empty collector aggregates not zero")
	}
	if c.InvalLatency().N() != 0 {
		t.Fatal("empty collector has latency samples")
	}
}

func TestCollectorCounters(t *testing.T) {
	c := NewCollector(3)
	c.MsgsSent[0] = 5
	c.MsgsSent[2] = 7
	if c.TotalMessages() != 12 {
		t.Fatalf("TotalMessages = %d, want 12", c.TotalMessages())
	}
	c.Occupancy[1] = sim.Time(99)
	if c.NodeOccupancy(1) != 99 {
		t.Fatalf("NodeOccupancy = %d, want 99", c.NodeOccupancy(1))
	}
}

// TestCollectorMerge checks the sweep engine's aggregation primitive:
// merging a collector into another is equivalent to having recorded all
// observations on one machine, including across differing mesh sizes.
func TestCollectorMerge(t *testing.T) {
	a := NewCollector(2)
	a.Invals = append(a.Invals, InvalRecord{Start: 0, End: 100, Sharers: 3, HomeMsgs: 6})
	a.ReadLatency.Add(10)
	a.WriteLatency.Add(20)
	a.Occupancy[0] = 5
	a.MsgsSent[1] = 7
	a.MsgsRecv[0] = 2
	a.Forwards = 1

	b := NewCollector(4) // larger machine: a must grow to fit
	b.Invals = append(b.Invals, InvalRecord{Start: 50, End: 250, Sharers: 5, HomeMsgs: 4})
	b.ReadLatency.Add(30)
	b.ReadMiss.Add(130)
	b.BarrierLatency.Add(400)
	b.Occupancy[3] = 9
	b.MsgsSent[1] = 4
	b.MsgsRecv[2] = 6
	b.Forwards = 2

	a.Merge(b)
	if len(a.Invals) != 2 || a.Invals[1].Sharers != 5 {
		t.Fatalf("Invals not appended: %+v", a.Invals)
	}
	if a.ReadLatency.N() != 2 || a.ReadLatency.Sum() != 40 {
		t.Fatalf("ReadLatency merge: n=%d sum=%v", a.ReadLatency.N(), a.ReadLatency.Sum())
	}
	if a.WriteLatency.N() != 1 || a.ReadMiss.N() != 1 || a.BarrierLatency.N() != 1 {
		t.Fatal("sample fields not all merged")
	}
	if len(a.Occupancy) != 4 || a.Occupancy[0] != 5 || a.Occupancy[3] != 9 {
		t.Fatalf("Occupancy merge: %v", a.Occupancy)
	}
	if a.MsgsSent[1] != 11 || a.MsgsRecv[0] != 2 || a.MsgsRecv[2] != 6 {
		t.Fatalf("message counters: sent=%v recv=%v", a.MsgsSent, a.MsgsRecv)
	}
	if a.Forwards != 3 {
		t.Fatalf("Forwards = %d, want 3", a.Forwards)
	}
	a.Merge(nil) // no-op
	if len(a.Invals) != 2 {
		t.Fatal("Merge(nil) changed the collector")
	}
}
