// Package trace is the cycle-accurate event-tracing subsystem: a
// preallocated ring buffer of fixed-size, cycle-stamped events recorded by
// nil-checked hooks threaded through the simulation engine, the wormhole
// fabric, and the coherence protocol, plus offline consumers that turn a
// recording into a Perfetto timeline, a per-miss critical-path breakdown,
// or a router/link/home-node occupancy profile.
//
// Recording is strictly observational: hooks only append to the ring —
// they never schedule events, draw random numbers, or touch protocol
// state — so an instrumented run is cycle-for-cycle identical to an
// uninstrumented one, and a nil *Recorder (the default everywhere) costs a
// single pointer comparison per hook site with zero allocations.
package trace

import "repro/internal/sim"

// Kind enumerates the event types a recorder can capture. The protocol
// layer emits op/msg/dir/txn events, the fabric emits worm and fault
// events, and the engine probe emits queue samples.
type Kind uint8

const (
	// Protocol-operation lifecycle (Event.Txn carries the op token).
	KindOpIssue Kind = iota // processor issues a read/write (Flag: opRead/opWrite)
	KindOpMiss              // cache lookup completed and missed
	KindOpDone              // operation retired (Flag: FlagHit on a cache hit)

	// Protocol messages (Event.Worm links to the carrying worm).
	KindMsgSend // message handed to the fabric (A = destination node, B = op token)
	KindMsgRecv // message delivered (Flag: FlagFinal on the worm's final delivery)

	// Home-node directory milestones.
	KindDirDone // directory lookup completed (B = op token)

	// Invalidation-transaction lifecycle (Event.Txn carries the txn id).
	KindTxnStart // transaction opened at the home (A = remote sharers, B = groups)
	KindTxnDone  // last acknowledgment collected (A = retries)
	KindTxnRetry // i-ack timeout fired: abort + unicast fallback (A = retry #, B = worms killed)

	// Worm lifecycle in the fabric (Event.Worm carries the worm id).
	KindWormInject  // header enters its injection channel (A = flits, B = hops)
	KindWormHead    // header arrives at Path[A]
	KindWormBlock   // header stalls (Flag: a Block* reason, A = path index)
	KindWormGrant   // stalled header granted its resource (Flag: reason, A = path index)
	KindWormHold    // worm acquires the channel into Path[A] (B = source node)
	KindWormRelease // worm's tail releases the channel into Path[A] (B = source node)
	KindWormDrain   // tail begins draining at the final destination
	KindWormDeliver // a copy is consumed at Path[A] (Flag: FlagFinal at the last stop)
	KindWormDone    // worm fully drained and retired
	KindWormKill    // worm killed mid-flight (fault or transaction abort)
	KindWormPark    // blocked gather worm parks in an i-ack entry (VCT deferred mode)
	KindWormResume  // parked gather worm re-injected after the local ack posted

	// I-ack buffer activity.
	KindAckPost // local node posts its invalidation ack into the i-ack entry

	// Protocol-controller occupancy (A = busy-start cycle, B = busy-end cycle).
	KindServerBusy

	// Fault injection (mirrors the network.Injector decisions).
	KindFaultDrop    // worm killed by the injector at Path[A]
	KindFaultStall   // link from Path[A] dead for B cycles
	KindFaultSlow    // router at Path[A] charged B extra decision cycles
	KindFaultAckLoss // i-ack post lost before reaching the buffer entry

	// Engine probe: periodic event-queue sample (A = pending, B = fired).
	KindEngineQueue

	numKinds
)

var kindNames = [...]string{
	"opIssue", "opMiss", "opDone",
	"msgSend", "msgRecv",
	"dirDone",
	"txnStart", "txnDone", "txnRetry",
	"wormInject", "wormHead", "wormBlock", "wormGrant", "wormHold",
	"wormRelease", "wormDrain", "wormDeliver", "wormDone", "wormKill",
	"wormPark", "wormResume",
	"ackPost",
	"serverBusy",
	"faultDrop", "faultStall", "faultSlow", "faultAckLoss",
	"engineQueue",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(?)"
}

// Flag values. For KindWormBlock/KindWormGrant the flag names the resource
// the worm stalled on; for msg and op events it marks delivery finality,
// cache hits, and read-vs-write.
const (
	FlagNone uint8 = iota
	FlagFinal
	FlagHit
	FlagWrite

	BlockInjection // injection channel busy
	BlockLink      // next link's channel busy
	BlockCons      // consumption pool at a destination exhausted
	BlockIAck      // i-ack buffer file full (reserve worm hold-and-wait)
	BlockGather    // gather worm waiting on an unposted i-ack
	BlockStall     // link dead under a transient fault
)

// blockNames maps Block* flags (offset by BlockInjection) to short names.
var blockNames = [...]string{"inject", "link", "cons", "iack", "gather", "stall"}

// BlockReason names a KindWormBlock/KindWormGrant flag.
func BlockReason(flag uint8) string {
	if flag >= BlockInjection && int(flag-BlockInjection) < len(blockNames) {
		return blockNames[flag-BlockInjection]
	}
	return "?"
}

// Well-known Event.Label values for protocol messages, matching the
// coherence layer's message-type names. The critical-path analyzer keys on
// these.
const (
	LabelReadReq    = "readReq"
	LabelWriteReq   = "writeReq"
	LabelInval      = "inval"
	LabelInvalAck   = "invalAck"
	LabelGatherAck  = "gatherAck"
	LabelFetchReq   = "fetchReq"
	LabelFetchInval = "fetchInval"
	LabelFetchReply = "fetchReply"
	LabelReadReply  = "readReply"
	LabelWriteReply = "writeReply"
)

// Event is one cycle-stamped trace record. Every field is fixed-size
// except Label, which producers must set to interned constant strings
// (message-type names, worm-kind names) so recording never allocates.
//
// Field use varies by Kind; see the Kind constants for the per-kind
// meaning of Node, Worm, Txn, Block, A and B.
type Event struct {
	At    sim.Time `json:"at"`
	Kind  Kind     `json:"k"`
	Flag  uint8    `json:"f,omitempty"`
	Node  int32    `json:"n"`
	Worm  uint64   `json:"w,omitempty"`
	Txn   uint64   `json:"t,omitempty"`
	Block uint64   `json:"b,omitempty"`
	A     uint64   `json:"a,omitempty"`
	B     uint64   `json:"b2,omitempty"`
	Label string   `json:"l,omitempty"`
}

// Recorder is a preallocated ring buffer of Events. Emit is branch-free
// beyond a mask-and-store: when the ring fills, the oldest events are
// overwritten (Dropped counts them) so a recorder never grows, never
// allocates after construction, and is safe inside simulation hot paths.
//
// A Recorder is single-threaded, like the simulation engine that feeds it:
// one recorder per machine, never shared across sweep workers.
type Recorder struct {
	buf  []Event
	mask uint64
	n    uint64 // total events ever emitted

	// ProbeEvery, when nonzero, asks AttachTrace to also install the
	// engine-queue probe, sampling every ProbeEvery fired events.
	ProbeEvery uint64
}

// NewRecorder returns a recorder holding the most recent `capacity` events
// (rounded up to a power of two, minimum 1024).
func NewRecorder(capacity int) *Recorder {
	size := 1024
	for size < capacity {
		size <<= 1
	}
	return &Recorder{buf: make([]Event, size), mask: uint64(size - 1)}
}

// Emit appends ev, overwriting the oldest event if the ring is full.
//
//simcheck:noalloc
func (r *Recorder) Emit(ev Event) {
	r.buf[r.n&r.mask] = ev
	r.n++
}

// Len reports how many events are currently retained.
func (r *Recorder) Len() int {
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Cap reports the ring's capacity in events.
func (r *Recorder) Cap() int { return len(r.buf) }

// Dropped reports how many events were overwritten by ring wrap-around.
func (r *Recorder) Dropped() uint64 {
	if r.n < uint64(len(r.buf)) {
		return 0
	}
	return r.n - uint64(len(r.buf))
}

// Events returns the retained events in emission order (oldest retained
// first). The returned slice is freshly allocated; the ring keeps
// recording independently.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.Len())
	start := uint64(0)
	if dropped := r.Dropped(); dropped > 0 {
		start = dropped
	}
	for i := start; i < r.n; i++ {
		out = append(out, r.buf[i&r.mask])
	}
	return out
}

// Reset discards all retained events and the drop count, keeping the
// allocated ring for reuse.
func (r *Recorder) Reset() { r.n = 0 }
