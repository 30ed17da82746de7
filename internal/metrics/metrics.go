// Package metrics collects the performance measures the paper evaluates:
// invalidation transaction latency, home-node occupancy, network traffic
// (messages and flit-hops), and end-to-end memory operation latencies.
package metrics

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// InvalRecord describes one completed invalidation transaction.
type InvalRecord struct {
	// Txn is the transaction's unique id.
	Txn uint64
	// Home is the directory home node that ran the transaction.
	Home topology.NodeID
	// Sharers is the number of remote sharers invalidated.
	Sharers int
	// Groups is the number of request worms used (equals Sharers under
	// UI-UA).
	Groups int
	// Broadcast marks a limited-directory overflow transaction that had to
	// invalidate every node.
	Broadcast bool
	// Start is when the home began sending invalidations; End is when the
	// last acknowledgment arrived at the home.
	Start, End sim.Time
	// HomeMsgs counts messages the home sent plus messages it received for
	// this transaction — the quantity home-node occupancy is proportional
	// to [18].
	HomeMsgs int
	// Retries counts recovery retries the transaction needed (0 on a
	// fault-free or lucky run).
	Retries int
}

// Latency returns the transaction's invalidation latency in cycles.
func (r InvalRecord) Latency() sim.Time { return r.End - r.Start }

// Collector accumulates simulation measurements. The zero value is ready
// for use.
type Collector struct {
	// Invals holds one record per completed invalidation transaction.
	Invals []InvalRecord
	// ReadLatency and WriteLatency sample end-to-end processor-visible
	// latencies of shared reads and writes (issue to completion), in
	// cycles. Hits are included.
	ReadLatency, WriteLatency sim.Sample
	// ReadMiss and WriteMiss sample miss-only latencies.
	ReadMiss, WriteMiss sim.Sample
	// Occupancy[n] is the total busy time of node n's protocol controller.
	Occupancy []sim.Time
	// MsgsSent/MsgsRecv count protocol messages per node.
	MsgsSent, MsgsRecv []uint64
	// Forwards counts data-forwarding pushes (recipient copies sent).
	Forwards uint64
	// BarrierLatency samples worm-barrier episode latencies (first arrival
	// to release launch).
	BarrierLatency sim.Sample
	// Retries counts invalidation-transaction recovery retries (i-ack
	// timeouts that re-sent unacknowledged sharers); Fallbacks counts
	// transactions degraded from multidestination to unicast invals
	// (MI→UI); DupAcks counts duplicate acknowledgments absorbed by the
	// idempotent recovery bookkeeping. All zero on fault-free runs.
	Retries, Fallbacks, DupAcks uint64
	// ImplicitInvals counts sharers invalidated implicitly at the directory
	// because the node had crashed (hard faults); Relays counts degraded
	// multi-leg messages re-injected at a relay pivot. Both zero unless a
	// hard-fault schedule is active.
	ImplicitInvals, Relays uint64
}

// NewCollector returns a collector for a machine with n nodes.
func NewCollector(n int) *Collector {
	return &Collector{
		Occupancy: make([]sim.Time, n),
		MsgsSent:  make([]uint64, n),
		MsgsRecv:  make([]uint64, n),
	}
}

// InvalLatency returns a sample over all recorded invalidation latencies.
func (c *Collector) InvalLatency() *sim.Sample {
	var s sim.Sample
	for _, r := range c.Invals {
		s.AddTime(r.Latency())
	}
	return &s
}

// HomeMsgsPerInval returns the mean number of home-node messages per
// invalidation transaction.
func (c *Collector) HomeMsgsPerInval() float64 {
	if len(c.Invals) == 0 {
		return 0
	}
	total := 0
	for _, r := range c.Invals {
		total += r.HomeMsgs
	}
	return float64(total) / float64(len(c.Invals))
}

// GroupsPerInval returns the mean number of request worms per transaction.
func (c *Collector) GroupsPerInval() float64 {
	if len(c.Invals) == 0 {
		return 0
	}
	total := 0
	for _, r := range c.Invals {
		total += r.Groups
	}
	return float64(total) / float64(len(c.Invals))
}

// TotalMessages returns the machine-wide count of protocol messages sent.
func (c *Collector) TotalMessages() uint64 {
	var total uint64
	for _, v := range c.MsgsSent {
		total += v
	}
	return total
}

// NodeOccupancy returns node n's accumulated controller busy cycles.
func (c *Collector) NodeOccupancy(n topology.NodeID) sim.Time {
	return c.Occupancy[n]
}
