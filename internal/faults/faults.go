// Package faults is the deterministic fault-injection layer for the
// wormhole network simulator. It implements network.Injector with pure
// splitmix64 hash decisions: whether a given worm is dropped, where, and
// which acks are lost is a function of (Config.Seed, worm identity) alone —
// never of wall-clock time, math/rand state, or the order in which the
// injector's methods happen to be consulted. Two runs of the same seed
// therefore meet byte-identical fault schedules, the parallel sweep engine
// reproduces a sequential run at any worker count, and a failing chaos
// schedule replays exactly from its seed.
//
// Faults target only what the protocol layer can recover from: worm drops
// apply to Expendable worms alone (invalidation-class traffic guarded by
// the home node's i-ack timeout), while link stalls and router slowdowns —
// pure delays — apply to every worm. A zero-valued Config injects nothing
// and perturbs nothing.
package faults

import (
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Config selects the fault mix. Rates are probabilities in [0, 1]; a
// zero-valued Config is a fault-free fabric. The struct is JSON-embedded in
// sweep points, so every field participates in the sweep fingerprint.
type Config struct {
	// Seed drives every fault decision; derive per-point seeds with
	// sim.DeriveSeed so sweep points get independent fault schedules.
	Seed uint64 `json:"seed"`
	// DropRate is the per-worm probability that an expendable worm is
	// killed mid-flight (at a hash-chosen hop, releasing held channels).
	// A retried worm has a fresh ID and re-rolls, so retry chains
	// terminate with probability one.
	DropRate float64 `json:"drop_rate,omitempty"`
	// AckLossRate is the per-(node, txn) probability that a sharer's
	// i-ack post is lost before reaching the local i-ack buffer entry.
	AckLossRate float64 `json:"ack_loss_rate,omitempty"`
	// LinkStallRate is the per-(worm, hop) probability that the outgoing
	// link is transiently dead; the header waits LinkStallCycles.
	LinkStallRate float64 `json:"link_stall_rate,omitempty"`
	// LinkStallCycles is the duration of one link stall, in cycles.
	LinkStallCycles sim.Time `json:"link_stall_cycles,omitempty"`
	// RouterSlowRate is the per-(worm, hop) probability of a transient
	// router slowdown adding RouterSlowCycles to the routing decision.
	RouterSlowRate float64 `json:"router_slow_rate,omitempty"`
	// RouterSlowCycles is the extra routing delay of one slowdown.
	RouterSlowCycles sim.Time `json:"router_slow_cycles,omitempty"`
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return c.DropRate > 0 || c.AckLossRate > 0 || c.LinkStallRate > 0 || c.RouterSlowRate > 0
}

// Domain salts decorrelate the decision streams of the different fault
// kinds drawn from one seed.
const (
	saltDrop    = 0xD1B54A32D192ED03
	saltDropHop = 0x8CB92BA72F3D8DD7
	saltAck     = 0xABC98388FB8FAC03
	saltStall   = 0x49858ABBB1C85D07
	saltRouter  = 0x2545F4914F6CDD1D
)

// Injector implements network.Injector over a Config. All methods are pure
// functions of (seed, arguments); the `now` parameters exist for interface
// generality and deliberately do not enter any hash, so a decision cannot
// depend on simulation timing.
type Injector struct {
	cfg Config
}

// New returns an injector for cfg, or nil when cfg injects nothing — so
// `net.Fault = faults.New(cfg)` wires a true zero-overhead fabric for
// fault-free configs.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg}
}

// mix folds vals into the seeded stream for one decision domain.
func (inj *Injector) mix(salt uint64, vals ...uint64) uint64 {
	h := sim.SplitMix64(inj.cfg.Seed ^ salt)
	for _, v := range vals {
		h = sim.SplitMix64(h + v)
	}
	return h
}

// chance maps a hash to [0, 1).
func chance(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// DropWorm reports whether w dies as its header arrives at Path[hop]. The
// worm's fate and death hop are both hashed from its ID: a doomed worm dies
// at exactly one hop of its path, chosen uniformly.
func (inj *Injector) DropWorm(w *network.Worm, hop int, now sim.Time) bool {
	if inj.cfg.DropRate <= 0 {
		return false
	}
	h := inj.mix(saltDrop, w.ID)
	if chance(h) >= inj.cfg.DropRate {
		return false
	}
	hops := w.Hops()
	if hops <= 0 {
		return false
	}
	dropHop := 1 + int(inj.mix(saltDropHop, w.ID)%uint64(hops))
	return hop == dropHop
}

// RouterPenalty returns the extra routing delay injected at Path[hop].
func (inj *Injector) RouterPenalty(w *network.Worm, hop int, now sim.Time) sim.Time {
	if inj.cfg.RouterSlowRate <= 0 || inj.cfg.RouterSlowCycles <= 0 {
		return 0
	}
	if chance(inj.mix(saltRouter, w.ID, uint64(hop))) < inj.cfg.RouterSlowRate {
		return inj.cfg.RouterSlowCycles
	}
	return 0
}

// LinkStall returns how long the link out of Path[hop] is dead for w.
func (inj *Injector) LinkStall(w *network.Worm, hop int, now sim.Time) sim.Time {
	if inj.cfg.LinkStallRate <= 0 || inj.cfg.LinkStallCycles <= 0 {
		return 0
	}
	if chance(inj.mix(saltStall, w.ID, uint64(hop))) < inj.cfg.LinkStallRate {
		return inj.cfg.LinkStallCycles
	}
	return 0
}

// LoseAck reports whether node's i-ack post for txn is lost. The decision
// hashes (node, txn); a lost post cannot permanently wedge a transaction
// because the home node's timeout retries the unacknowledged sharers with
// unicast invalidations whose acks travel as ordinary worms, bypassing the
// i-ack buffer path entirely.
func (inj *Injector) LoseAck(node topology.NodeID, txn uint64, now sim.Time) bool {
	if inj.cfg.AckLossRate <= 0 {
		return false
	}
	return chance(inj.mix(saltAck, txn, uint64(node))) < inj.cfg.AckLossRate
}
