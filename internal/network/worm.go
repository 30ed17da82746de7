// Package network is a cycle-level wormhole-routed 2-D mesh network
// simulator with multidestination message passing support: unicast worms,
// multicast worms with forward-and-absorb, i-reserve worms that reserve
// invalidation-acknowledgment (i-ack) buffer entries at router interfaces,
// and i-gather worms that collect the posted i-acks on their way back to
// the home node (blocking or virtual-cut-through deferred-delivery mode),
// as proposed by Dai and Panda for wormhole-routed DSMs.
//
// Two logically separate virtual networks carry coherence traffic, the
// usual arrangement for avoiding request-reply protocol deadlock. Worms on
// the request network follow the base routing (e-cube XY or west-first);
// worms on the reply network follow the *reverse* base routing (Y-then-X
// for e-cube), so an i-gather worm that retraces an i-reserve worm's path
// backwards is base-routing conformed on its own network and the BRCP
// deadlock-freedom argument applies unchanged.
package network

import (
	"fmt"
	"slices"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Kind classifies a worm.
type Kind int

const (
	// Unicast is an ordinary single-destination worm.
	Unicast Kind = iota
	// Multicast is a multidestination worm using forward-and-absorb at each
	// intermediate destination's router interface (needs a consumption
	// channel there) without touching i-ack buffers. Used by the MI-UA
	// framework and the BR broadcast comparator.
	Multicast
	// Reserve is an i-reserve worm: a multicast worm that additionally
	// reserves an i-ack buffer entry at every destination's router
	// interface so a later gather worm can pick up the acknowledgment.
	Reserve
	// Gather is an i-gather worm: it visits destinations and must collect
	// a posted i-ack from each router interface's i-ack buffer before
	// moving on; it consumes no consumption channels at intermediate
	// destinations.
	Gather
)

var kindNames = [...]string{"unicast", "multicast", "reserve", "gather"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// VN selects a virtual network.
type VN int

const (
	// Request carries processor-to-home and home-to-sharer traffic.
	Request VN = iota
	// Reply carries responses back; routed with the reverse base routing.
	Reply
	numVNs
)

func (v VN) String() string {
	if v == Request {
		return "request"
	}
	return "reply"
}

// wormState tracks where a worm is in its lifecycle.
type wormState int

const (
	wormQueued wormState = iota // created, not yet injected
	wormInjecting
	wormMoving   // header advancing hop by hop
	wormBlocked  // waiting on a channel, consumption channel, buffer or ack
	wormDeferred // VCT-parked in an i-ack buffer awaiting the local ack
	wormDraining // header reached final destination; body being consumed
	wormDone
	wormKilled // removed mid-flight by fault injection or transaction abort
)

// Worm is one message in flight. Construct with the network's Send helpers
// or fill the exported fields and call Inject.
type Worm struct {
	// ID is assigned at injection and unique per network.
	ID uint64
	// Kind selects unicast/multicast/reserve/gather behavior.
	Kind Kind
	// VN is the virtual network the worm travels on.
	VN VN
	// Path is the full node sequence from source to final destination,
	// inclusive. It must follow mesh links hop by hop.
	Path []topology.NodeID
	// Dest flags, per Path index, the intermediate and final destinations.
	// Dest[0] (the source) must be false; Dest[len(Path)-1] must be true.
	Dest []bool
	// PayloadFlits is the data length in flits (excluding header).
	PayloadFlits int
	// HeaderFlits is the routing header length in flits.
	HeaderFlits int
	// TxnID associates reserve and gather worms of one invalidation
	// transaction for i-ack buffer matching.
	TxnID uint64
	// Expendable marks worms whose loss the protocol layer can recover
	// from (invalidation-class traffic guarded by the i-ack timeout).
	// Only expendable worms are eligible for fault-injected drops and
	// transaction aborts; data-carrying request/reply worms never are.
	Expendable bool
	// Tag carries an opaque protocol payload delivered with the worm.
	Tag any

	state      wormState
	hopIdx     int // path index of the header's current router
	injectedAt sim.Time
	// slot is 1 + the worm's index in Network.inFlight while it is in
	// flight, and 0 before injection and once retired or recycled.
	slot int
	// chans[i] is the channel of index i, resolved once at Inject: 0 is the
	// source's injection channel and i >= 1 the link into Path[i]. A
	// VCT-parked gather re-injected at Path[i] holds that router's
	// injection channel at index i instead. The worm holds indices
	// [heldFrom, heldTo).
	chans    []*channel
	heldFrom int
	heldTo   int
	// consHeld lists consumption-channel tokens held at intermediate
	// destinations (ascending path index) until the tail passes.
	consHeld []consRef
	net      *Network
	// While queued on a resource (waitQueue): the next worm in the queue,
	// and the path index and action the grant resumes.
	waitNext *Worm
	waitI    int32
	waitAct  uint8
	queued   bool

	// Pooling state. refs counts live references from scheduled engine
	// callbacks, resource-queue waiters and i-ack parks; a pooled worm is
	// recycled once it is done (or killed) and refs drains to zero. pooled
	// marks worms obtained from Network.NewWorm — only those recycle. Every
	// production worm is pooled; worm literals are a test convenience and
	// stay inspectable after completion. ownsPath/ownsDest mark Path/Dest
	// as pool-owned buffers to reclaim; a caller's own slices (a test's
	// literal path) are dropped instead.
	refs     int32
	pooled   bool
	ownsPath bool
	ownsDest bool
	pathBuf  []topology.NodeID
	destBuf  []bool
}

// consRef records one consumption-channel token held at path index idx.
type consRef struct {
	idx  int32
	pool *consumptionPool
}

// TakePathBuf returns the worm's reusable path buffer (length zero) and
// marks Path as pool-owned. Callers append the route and assign the result
// to w.Path before Inject; the buffer's grown capacity is reclaimed when
// the worm recycles.
//
//simcheck:pool borrow
//simcheck:noalloc
func (w *Worm) TakePathBuf() []topology.NodeID {
	w.ownsPath = true
	return w.pathBuf[:0]
}

// TakeDestBuf returns the worm's reusable destination-flag buffer, sized to
// n and cleared to false, and marks Dest as pool-owned. Callers set flags
// and assign it to w.Dest before Inject.
//
//simcheck:pool borrow
//simcheck:noalloc
func (w *Worm) TakeDestBuf(n int) []bool {
	w.ownsDest = true
	w.destBuf = slices.Grow(w.destBuf[:0], n)[:n]
	clear(w.destBuf)
	return w.destBuf
}

// Flits returns the total worm length in flits (header plus payload).
func (w *Worm) Flits() int { return w.HeaderFlits + w.PayloadFlits }

// InjectedAt returns the time the worm entered the network.
func (w *Worm) InjectedAt() sim.Time { return w.injectedAt }

// Hops returns the number of links the worm traverses.
func (w *Worm) Hops() int { return len(w.Path) - 1 }

// Source returns the injecting node.
func (w *Worm) Source() topology.NodeID { return w.Path[0] }

// Final returns the final destination node.
func (w *Worm) Final() topology.NodeID { return w.Path[len(w.Path)-1] }

// Destinations returns the worm's destinations in path order.
func (w *Worm) Destinations() []topology.NodeID {
	var out []topology.NodeID
	for i, d := range w.Dest {
		if d {
			out = append(out, w.Path[i])
		}
	}
	return out
}

// validate panics on structurally inconsistent worms: these are model bugs.
// A path that does not follow mesh links is caught as Inject resolves its
// hops (resolveLinks).
func (w *Worm) validate() {
	if len(w.Path) == 0 {
		panic("network: worm with empty path")
	}
	if len(w.Dest) != len(w.Path) {
		panic("network: worm Dest length mismatch")
	}
	if !w.Dest[len(w.Path)-1] {
		panic("network: worm final path node must be a destination")
	}
	if len(w.Path) > 1 && w.Dest[0] {
		panic("network: worm source must not be a destination")
	}
	if w.HeaderFlits <= 0 {
		panic("network: worm needs at least one header flit")
	}
	if w.Kind == Unicast {
		for i := 1; i < len(w.Path)-1; i++ {
			if w.Dest[i] {
				panic("network: unicast worm with intermediate destination")
			}
		}
	}
}

// Delivery reports one worm arrival at one destination to the protocol
// layer.
type Delivery struct {
	// Node is the destination receiving this copy.
	Node topology.NodeID
	// Worm is the delivered worm; Tag carries the protocol payload.
	Worm *Worm
	// Final is true at the worm's last destination (where the worm is
	// consumed), false for forward-and-absorb copies at intermediate
	// destinations.
	Final bool
}
