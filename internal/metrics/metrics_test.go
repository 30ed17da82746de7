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
