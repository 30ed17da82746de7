package network

import (
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Injector is the fault-injection hook the network consults on its hot
// paths. A nil Network.Fault (the default) means a fault-free fabric and
// costs a single pointer comparison per hop, so the fault layer perturbs
// nothing when disabled.
//
// Implementations must be deterministic pure functions of their arguments
// and any construction-time seed (internal/faults derives every decision
// with splitmix hashes): the simulator's replay guarantees extend to faulty
// fabrics only if the same worm meets the same fault in every run.
type Injector interface {
	// DropWorm reports whether w should be killed as its header arrives at
	// Path[hop]. It is consulted only for Expendable worms (those whose
	// protocol layer can recover from the loss) and never at hop 0.
	DropWorm(w *Worm, hop int, now sim.Time) bool
	// RouterPenalty returns extra routing-decision delay (a transient
	// router slowdown) charged at Path[hop], on top of Config.RouterDelay.
	RouterPenalty(w *Worm, hop int, now sim.Time) sim.Time
	// LinkStall returns how long the link from Path[hop] to Path[hop+1] is
	// dead for w (a transient link failure); the header waits out the stall
	// before competing for the link's virtual channels.
	LinkStall(w *Worm, hop int, now sim.Time) sim.Time
	// LoseAck reports whether node's i-ack post for txn is lost before it
	// reaches the local i-ack buffer entry.
	LoseAck(node topology.NodeID, txn uint64, now sim.Time) bool
}

// killWorm removes w from the fabric mid-flight: every channel it still
// holds is released immediately (the abrupt-tail semantics of a killed
// worm), consumption channels at partially-streamed destinations are freed
// without delivering the truncated copies, and the worm is retired without
// an OnDeliver callback. It reports whether it killed w.
func (n *Network) killWorm(w *Worm) bool {
	if !w.killable() {
		return false
	}
	now := n.Engine.Now()
	w.state = wormKilled
	if n.Rec != nil {
		n.traceWorm(trace.KindWormKill, 0, w, w.Path[w.hopIdx], uint64(w.hopIdx), 0, "")
	}
	for j := w.heldFrom; j < len(w.Path); j++ {
		if lane := w.lanes[j]; lane != nil {
			w.lanes[j] = nil
			n.releaseLane(lane, now)
		}
	}
	// Park heldFrom past the end so any already-scheduled staggered release
	// event (guarded on heldFrom == j) becomes a no-op.
	w.heldFrom = len(w.Path)
	// consHeld is kept in ascending path order, so the FIFO hand-off to
	// waiting worms is schedule-independent.
	for k := range w.consHeld {
		n.releaseCons(w.consHeld[k].pool)
	}
	w.consHeld = w.consHeld[:0]
	n.unregister(w)
	n.beacon.Mark()
	return true
}

// killable reports whether w can still be killed: it is in flight (not
// completed, killed or recycled) and not draining, which is past the point
// of no return.
func (w *Worm) killable() bool {
	return w.slot != 0 && w.state != wormKilled && w.state != wormDraining
}

// AbortTxn cancels transaction txn at the fabric level: every in-flight
// expendable worm of the transaction is killed (releasing its channels) and
// every i-ack buffer entry reserved under the transaction is freed, parked
// or in-place-waiting gather worms included. Late PostAck calls for an
// aborted transaction are absorbed (counted as StaleAcks) instead of
// panicking. It returns the number of worms killed.
//
// This is the protocol layer's recovery entry point: a home node whose
// i-ack timeout fired calls AbortTxn before falling back to per-sharer
// unicast invalidations under a fresh retry generation.
func (n *Network) AbortTxn(txn uint64) int {
	killed := 0
	for _, w := range n.inFlightByID() {
		// A kill hands lanes to waiting worms, which can carry a later
		// victim into its drain before its turn; killWorm skips it then.
		if w.TxnID == txn && w.Expendable && n.killWorm(w) {
			killed++
			n.stats.Aborted++
		}
	}
	for i := range n.iack {
		f := &n.iack[i]
		for {
			found, discarded, wt, granted := f.purge(txn)
			if !found {
				break
			}
			if granted {
				n.dispatchReserve(f, wt)
			}
			if discarded != nil {
				// A parked or in-place-waiting gather worm was discarded
				// with the entry; drop its await reference.
				n.wormUnref(discarded)
			}
		}
	}
	if n.abortedTxns == nil {
		n.abortedTxns = make(map[uint64]bool)
	}
	n.abortedTxns[txn] = true
	return killed
}

// watchdog is the runtime liveness monitor: armed while worms are in
// flight, it samples the network's progress beacon every interval and,
// after maxStrikes consecutive no-progress intervals, hands the full
// Network.Diagnose() dump to onStall instead of letting the simulation
// hang (or spin) silently. It disarms whenever the network quiesces, so a
// drained event queue stays drained.
type watchdog struct {
	interval   sim.Time
	maxStrikes int
	onStall    func(diagnosis string)

	armed     bool
	fired     bool
	strikes   int
	lastTicks uint64
}

// StartWatchdog enables the liveness watchdog: every interval cycles in
// which worms are outstanding but the progress beacon has not advanced
// counts one strike, and maxStrikes consecutive strikes invoke onStall with
// the Diagnose() dump (after which the watchdog stays quiet). A nil onStall
// panics with the diagnosis. The watchdog is armed lazily at injection
// time, so an idle network schedules no events and the engine can drain.
//
// Pick interval well above the longest legitimate quiet stretch (protocol
// controller occupancy plus any recovery backoff): the watchdog is a
// deadlock reporter, not a performance monitor, and must never fire on a
// merely congested run.
func (n *Network) StartWatchdog(interval sim.Time, maxStrikes int, onStall func(string)) {
	if interval <= 0 {
		panic("network: watchdog interval must be positive")
	}
	if maxStrikes <= 0 {
		maxStrikes = 1
	}
	if onStall == nil {
		onStall = func(d string) { panic("network: liveness watchdog: no progress\n" + d) }
	}
	n.wd = &watchdog{interval: interval, maxStrikes: maxStrikes, onStall: onStall}
}

// WatchdogFired reports whether the liveness watchdog has raised a stall.
func (n *Network) WatchdogFired() bool { return n.wd != nil && n.wd.fired }

// armWatchdog schedules the next watchdog tick if the watchdog is enabled
// and not already armed (called from Inject).
func (n *Network) armWatchdog() {
	wd := n.wd
	if wd == nil || wd.armed || wd.fired {
		return
	}
	wd.armed = true
	wd.strikes = 0
	wd.lastTicks = n.beacon.Ticks()
	n.Engine.AfterCall(wd.interval, watchdogTick, n, 0)
}

// watchdogTick is the watchdog's event handler; arg is the *Network.
func watchdogTick(arg any, _ int32) {
	n := arg.(*Network)
	wd := n.wd
	wd.armed = false
	if wd.fired || len(n.inFlight) == 0 {
		// Quiesced: disarm until the next injection.
		return
	}
	if ticks := n.beacon.Ticks(); ticks != wd.lastTicks {
		wd.lastTicks = ticks
		wd.strikes = 0
	} else {
		wd.strikes++
		if wd.strikes >= wd.maxStrikes {
			wd.fired = true
			wd.onStall(n.Diagnose())
			return
		}
	}
	wd.armed = true
	n.Engine.AfterCall(wd.interval, watchdogTick, n, 0)
}
