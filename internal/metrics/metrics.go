// Package metrics collects the performance measures the paper evaluates:
// invalidation transaction latency, home-node occupancy, network traffic
// (messages and flit-hops), and memory miss latencies.
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
	// ReadMiss and WriteMiss summarize the processor-visible latencies
	// (issue to completion, in cycles) of shared reads and writes that
	// missed; hits are not counted.
	ReadMiss, WriteMiss sim.Summary
	// Occupancy[n] is the total busy time of node n's protocol controller.
	Occupancy []sim.Time
	// MsgsSent/MsgsRecv count protocol messages per node.
	MsgsSent, MsgsRecv []uint64
	// Retries counts invalidation-transaction recovery retries (i-ack
	// timeouts that re-sent unacknowledged sharers); DupAcks counts
	// duplicate acknowledgments absorbed by the idempotent recovery
	// bookkeeping. Both zero on fault-free runs.
	Retries, DupAcks uint64
}

// NewCollector returns a collector for a machine with n nodes.
func NewCollector(n int) *Collector {
	return &Collector{
		Occupancy: make([]sim.Time, n),
		MsgsSent:  make([]uint64, n),
		MsgsRecv:  make([]uint64, n),
	}
}
