// Package coherence implements the DSM node architecture of the paper: a
// directory controller (DC), cache controller (CC) and outgoing message
// controller (OC) per node over the wormhole network, running a
// fully-mapped write-invalidate directory protocol under sequential
// consistency, with the invalidation transaction implemented by any of the
// six grouping schemes (UI-UA baseline, multidestination MI-UA and MI-MA
// variants, and the BR broadcast comparator).
package coherence

import (
	"repro/internal/grouping"
	"repro/internal/network"
	"repro/internal/sim"
)

// Params configures a Machine. All times are 5 ns base cycles; the
// defaults follow the paper's technology point (100 MHz processors,
// 200 Mbyte/s links, 20 ns routers, 120 ns DRAM).
type Params struct {
	// MeshSize is the k of the k x k mesh.
	MeshSize int
	// MeshWidth and MeshHeight, when both nonzero, select a rectangular
	// W x H mesh instead of MeshSize x MeshSize.
	MeshWidth, MeshHeight int
	// Scheme selects the invalidation framework and grouping.
	Scheme grouping.Scheme
	// Net carries the network timing/resource configuration.
	Net network.Config

	// CacheAccess is the cache lookup time (2 cycles = one 100 MHz clock).
	CacheAccess sim.Time
	// CacheInvalidate is the time to invalidate a line on request.
	CacheInvalidate sim.Time
	// DirLookup is a directory lookup or update at the home.
	DirLookup sim.Time
	// MemAccess is a DRAM block read or write (24 cycles = 120 ns).
	MemAccess sim.Time
	// SendOccupancy / RecvOccupancy are the controller busy times to emit
	// or accept one protocol message; home-node occupancy is proportional
	// to the number of messages it sends and receives [18].
	SendOccupancy sim.Time
	RecvOccupancy sim.Time

	// BlockBytes is the cache block size; FlitBytes the flit width;
	// ControlBytes the payload of a data-less protocol message.
	BlockBytes   int
	FlitBytes    int
	ControlBytes int
	// Recovery configures the home node's i-ack timeout watchdog: when
	// enabled, an invalidation transaction whose acknowledgments do not
	// all arrive within the (exponentially backed-off) deadline is aborted
	// at the fabric level and retried with per-sharer unicast worms. The
	// zero value disables recovery, leaving the fault-free simulator's
	// behavior bit-for-bit untouched.
	Recovery Recovery
	// Fault is handed to the network as its fault injector (nil = a
	// fault-free fabric).
	Fault network.Injector
}

// DefaultParams returns the paper's system parameters on a k x k mesh.
func DefaultParams(k int, scheme grouping.Scheme) Params {
	return Params{
		MeshSize:        k,
		Scheme:          scheme,
		Net:             network.DefaultConfig(),
		CacheAccess:     2,
		CacheInvalidate: 4,
		DirLookup:       6,
		MemAccess:       24,
		SendOccupancy:   8,
		RecvOccupancy:   8,
		BlockBytes:      32,
		FlitBytes:       2,
		ControlBytes:    8,
	}
}

// Variant names a machine that differs from DefaultParams in the parameters
// the ablations vary (i-ack depth, consumption channels, VCT). It is data, not code, so a sweep point that carries
// one can be serialised and fingerprinted. Every field's zero value means
// DefaultParams' value: a nil or empty Variant is the default machine.
type Variant struct {
	IAckBuffers         int  `json:"iack_buffers,omitempty"`
	ConsumptionChannels int  `json:"consumption_channels,omitempty"`
	VCTDeferred         bool `json:"vct_deferred,omitempty"`
}

// Apply overrides p with the variant's non-zero fields. A nil variant
// changes nothing.
func (v *Variant) Apply(p *Params) {
	if v == nil {
		return
	}
	if v.IAckBuffers != 0 {
		p.Net.IAckBuffers = v.IAckBuffers
	}
	if v.ConsumptionChannels != 0 {
		p.Net.ConsumptionChannels = v.ConsumptionChannels
	}
	if v.VCTDeferred {
		p.Net.VCTDeferred = true
	}
}

// Recovery configures the i-ack timeout/retry machinery of the home node.
type Recovery struct {
	// Enabled arms the per-transaction deadline.
	Enabled bool
	// Timeout is the base deadline in cycles from transaction start (and
	// from each retry); retry r waits Timeout << min(r, 6), the
	// exponential backoff.
	Timeout sim.Time
	// MaxRetries bounds the retry chain; 0 means unlimited. Exhausting it
	// panics with the network diagnosis — the transaction failed cleanly
	// and loudly rather than wedging the simulation.
	MaxRetries int
}

// DefaultRecovery returns the recovery settings used by the fault-injection
// experiments: a 4096-cycle (~20 us) base deadline, comfortably above the
// worst fault-free invalidation latency at the paper's system sizes, with
// an unlimited exponentially backed-off retry chain.
func DefaultRecovery() Recovery {
	return Recovery{Enabled: true, Timeout: 4096}
}

// controlFlits returns the payload flit count of a data-less message. It
// and dataFlits take a pointer: they run on every message, and Params is
// too large to copy there.
func (p *Params) controlFlits() int { return (p.ControlBytes + p.FlitBytes - 1) / p.FlitBytes }

// dataFlits returns the payload flit count of a block-carrying message.
func (p *Params) dataFlits() int {
	return (p.ControlBytes + p.BlockBytes + p.FlitBytes - 1) / p.FlitBytes
}
