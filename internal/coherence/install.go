package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/directory"
	"repro/internal/topology"
)

// InstallSharer makes node n a sharer of block b functionally: it writes the
// state a completed read miss by n leaves behind — directory entry Shared
// with n's presence bit set, the line Shared in n's cache, the home's own
// copy included — and fires no event, injects no worm and touches no
// statistic. A node that already holds the line stays as it is, as a read
// hit would leave it.
//
// The machine must be idle: no worm in the fabric, no pending engine event,
// no outstanding operation at n, and b's directory entry Uncached or Shared.
// Anything else is a caller bug and panics.
//
// InstallSharer returns false and does nothing when skipping the read would
// be observable in this machine's later behaviour; the caller then simulates
// the read instead. See installObservable for the conditions.
func (m *Machine) InstallSharer(n topology.NodeID, b directory.BlockID) bool {
	if !m.Quiesced() {
		panic(fmt.Sprintf("coherence: InstallSharer with %d worms outstanding", m.Net.Outstanding()))
	}
	if m.Engine.Pending() != 0 {
		panic(fmt.Sprintf("coherence: InstallSharer with %d events pending", m.Engine.Pending()))
	}
	if m.opCount[n] != 0 {
		panic(fmt.Sprintf("coherence: InstallSharer with an operation outstanding at node %d", n))
	}
	if m.installObservable() {
		return false
	}
	e := m.dirs[m.Home(b)].Lookup(b)
	switch e.State {
	case directory.Uncached, directory.Shared:
	default:
		panic("coherence: InstallSharer in state " + e.State.String())
	}
	if m.caches[n].State(b) == cache.SharedLine {
		return true
	}
	e.State = directory.Shared
	e.Sharers.Set(n)
	m.caches[n].Fill(b, cache.SharedLine)
	return true
}

// installObservable reports whether this machine would behave differently
// later for having a read miss installed rather than simulated:
//
//   - a fault injector: fault decisions hash worm IDs and
//     absolute time, both of which the skipped reads advance;
//   - chaos ordering: every event the reads schedule draws from the
//     tie-break RNG that orders all later same-time events;
//   - an attached trace.Recorder: the reads are in the recording;
//   - bounded caches: a fill can evict a line and write it back.
func (m *Machine) installObservable() bool {
	return m.Net.Fault != nil || m.Engine.Chaotic() ||
		m.Rec != nil || m.Params.CacheLines > 0
}
