package network

import (
	"repro/internal/sim"
)

// channel is one unidirectional wormhole channel: a node's injection port
// (network interface to its router) or a physical link (router to
// neighboring router) on one virtual network. A channel is held exclusively
// by one worm from header acquisition until the worm's tail crosses it;
// worms that find it busy queue FIFO for the next release.
//
// The channel is passive: tryAcquire and release manage its state, and the
// Network dispatches granted waiters (see dispatchChannel), keeping the hot
// path free of closure allocations. Channels are stored by value in the
// Network's flat per-VN arrays, which are sized for every port; absent
// marks the local port and a mesh edge's ports, which have no link.
type channel struct {
	busy    bool
	absent  bool
	waiters waitQueue

	// stats
	acquired  sim.Time // time of the current acquisition
	busyTotal sim.Time // accumulated held cycles
}

// tryAcquire takes the channel when it is free (the caller queues a waiter
// otherwise).
//
//simcheck:noalloc
func (c *channel) tryAcquire(now sim.Time) bool {
	if c.busy {
		return false
	}
	c.busy = true
	c.acquired = now
	return true
}

// release frees the channel at time now. If a waiter is queued the channel
// passes directly to it: the waiter is returned (granted == true) with the
// channel already re-acquired, and the caller must dispatch it.
//
//simcheck:noalloc
func (c *channel) release(now sim.Time) (wt waiter, granted bool) {
	if !c.busy {
		panic("network: release of idle channel")
	}
	c.busyTotal += now - c.acquired
	if c.waiters.empty() {
		c.busy = false
		return waiter{}, false
	}
	c.acquired = now
	return c.waiters.pop(), true
}

// utilization returns the fraction of [0, now] this channel was held.
func (c *channel) utilization(now sim.Time) float64 {
	if now == 0 {
		return 0
	}
	total := c.busyTotal
	if c.busy {
		total += now - c.acquired
	}
	return float64(total) / float64(now)
}

// waiter is one worm queued on a contended resource (channel, consumption
// pool, or i-ack buffer file). The act code tells the network's dispatch
// what the worm was waiting to do, so a grant resumes it without a per-wait
// closure allocation.
type waiter struct {
	w   *Worm
	i   int32 // path index the worm is waiting at
	act uint8
}

// waitQueue is the FIFO of worms waiting on one resource, linked through
// the worms themselves: a blocked worm's header is stalled at one place, so
// it waits on one resource at a time, and queueing allocates nothing.
type waitQueue struct {
	head, tail *Worm
}

// push queues w, waiting at path index i to do act.
//
//simcheck:noalloc
func (q *waitQueue) push(w *Worm, i int32, act uint8) {
	if w.queued {
		panic("network: worm queued on two resources")
	}
	w.queued, w.waitI, w.waitAct = true, i, act
	if q.tail == nil {
		q.head = w
	} else {
		q.tail.waitNext = w
	}
	q.tail = w
}

// empty reports whether no worm is queued.
func (q *waitQueue) empty() bool { return q.head == nil }

// pop dequeues the longest-waiting worm.
//
//simcheck:noalloc
func (q *waitQueue) pop() waiter {
	w := q.head
	q.head = w.waitNext
	if q.head == nil {
		q.tail = nil
	}
	w.waitNext, w.queued = nil, false
	return waiter{w: w, i: w.waitI, act: w.waitAct}
}

// Waiter actions: what a granted worm does next.
const (
	actInject        uint8 = iota // source injection channel grant (i == 0)
	actReinject                   // re-injection channel grant for a VCT-parked gather
	actLink                       // link channel grant from Path[i] toward Path[i+1]
	actConsMulticast              // consumption token at intermediate dest (forward-and-absorb)
	actConsReserve                // consumption token at intermediate dest (reserve worm)
	actConsFinal                  // consumption token at the final destination (drain)
	actIAckReserve                // i-ack buffer entry grant for a reserve worm
)

// consumptionPool is the set of consumption channels from a router
// interface to its node. Every worm delivery (final consumption and
// forward-and-absorb copies) holds one token; the paper shows 4 channels
// per interface suffice for deadlock freedom of multidestination worms on
// a 2-D mesh.
type consumptionPool struct {
	total   int
	inUse   int
	waiters waitQueue
	peak    int
}

// tryAcquire takes a token when one is free.
//
//simcheck:noalloc
func (p *consumptionPool) tryAcquire() bool {
	if p.inUse >= p.total {
		return false
	}
	p.inUse++
	if p.inUse > p.peak {
		p.peak = p.inUse
	}
	return true
}

// release returns a token. If a waiter is queued the token passes directly
// to it (granted == true) and the caller must dispatch it.
//
//simcheck:noalloc
func (p *consumptionPool) release() (wt waiter, granted bool) {
	if p.inUse <= 0 {
		panic("network: release of idle consumption channel")
	}
	if !p.waiters.empty() {
		return p.waiters.pop(), true
	}
	p.inUse--
	return waiter{}, false
}
