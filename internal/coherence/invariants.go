package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/directory"
	"repro/internal/topology"
)

// InvariantMode selects how much of the machine's transient state
// CheckInvariantsMode tolerates.
type InvariantMode int

const (
	// StrictInvariants is the quiescent-point mode: no traffic may be in
	// flight, no entry may be Waiting, and every rule below applies in full.
	StrictInvariants InvariantMode = iota
	// RelaxedInvariants is callable mid-flight, while transactions run: it
	// skips the quiescence gate and rule 4 (transient Waiting entries are
	// legal), checks only the single-writer half of rule 1 (the owner's own
	// copy may still be racing in on the reply network), and keeps the
	// per-state safety rules that hold at every instant of a correct
	// execution — at most one writer, Exclusive isolation, Uncached
	// emptiness, Shared blocks never Modified, and presence bits never
	// under-approximating a Shared entry's copies.
	RelaxedInvariants
)

func (m InvariantMode) String() string {
	switch m {
	case StrictInvariants:
		return "strict"
	case RelaxedInvariants:
		return "relaxed"
	default:
		panic("coherence: unknown invariant mode")
	}
}

// CheckInvariants validates the machine's global coherence invariants in
// strict mode. It must be called at quiescence (no in-flight traffic);
// transient states are legal while transactions run — use
// CheckInvariantsMode(RelaxedInvariants) mid-flight. It returns the first
// violation found, or nil.
//
// The invariants are the standard single-writer / multiple-reader
// conditions of a full-map invalidate protocol:
//
//  1. An Exclusive directory entry's owner holds the line Modified, and no
//     other node holds it in any valid state.
//  2. A Shared entry has no Modified copies anywhere, and every valid
//     cached copy is recorded in the presence bits. Presence bits never
//     under-approximate. They over-approximate only after a read miss was
//     squashed by a recovery retry (its node's bit is set when the read is
//     served, but the fill installs nothing), so on a machine that has
//     squashed nothing the strict mode also requires every presence bit to
//     name a node holding the line Shared.
//  3. An Uncached entry has no valid copies anywhere.
//  4. No entry is left in the transient Waiting state.
func (m *Machine) CheckInvariants() error {
	return m.CheckInvariantsMode(StrictInvariants)
}

// CheckInvariantsMode validates the coherence invariants under the given
// mode: StrictInvariants at quiescence, RelaxedInvariants at any point of
// an execution (the model checker and the fuzzing oracle call it between
// operations, with transactions still in flight).
func (m *Machine) CheckInvariantsMode(mode InvariantMode) error {
	if mode == StrictInvariants && !m.Quiesced() {
		return fmt.Errorf("coherence: CheckInvariants requires quiescence (%d worms in flight)",
			m.Net.Outstanding())
	}
	for home := 0; home < m.Mesh.Nodes(); home++ {
		var err error
		m.dirs[home].ForEach(func(b directory.BlockID, e *directory.Entry) {
			if err != nil {
				return
			}
			err = m.checkEntry(topology.NodeID(home), b, e, mode)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) checkEntry(home topology.NodeID, b directory.BlockID, e *directory.Entry, mode InvariantMode) error {
	switch e.State {
	case directory.Waiting:
		if mode == StrictInvariants {
			return fmt.Errorf("block %d at home %d stuck in waiting state", b, home)
		}
		// Mid-transaction the only rule that must hold regardless of the
		// transaction's phase is single-writer: a Modified copy excludes
		// every other valid copy.
		return m.checkSingleWriter(b)
	case directory.Exclusive:
		for n := 0; n < m.Mesh.Nodes(); n++ {
			st := m.caches[n].State(b)
			if topology.NodeID(n) == e.Owner {
				// A line leaves a cache only by invalidation, so at
				// quiescence the owner holds its line Modified. Mid-flight
				// (relaxed) the grant may still be racing to the owner on
				// the reply network, so any owner state is legal.
				if mode == StrictInvariants && st != cache.ModifiedLine {
					return fmt.Errorf("block %d exclusive at %d but owner state is %v", b, e.Owner, st)
				}
				continue
			}
			if st != cache.Invalid {
				return fmt.Errorf("block %d exclusive at %d but node %d holds %v", b, e.Owner, n, st)
			}
		}
	case directory.Shared:
		for n := 0; n < m.Mesh.Nodes(); n++ {
			st := m.caches[n].State(b)
			if st == cache.ModifiedLine {
				return fmt.Errorf("block %d shared but node %d holds it modified", b, n)
			}
			if st == cache.SharedLine && !e.Sharers.Has(topology.NodeID(n)) {
				return fmt.Errorf("block %d cached shared at %d but absent from presence bits", b, n)
			}
			if mode == StrictInvariants && m.squashes == 0 &&
				st != cache.SharedLine && e.Sharers.Has(topology.NodeID(n)) {
				return fmt.Errorf("block %d lists node %d in its presence bits but the node holds %v", b, n, st)
			}
		}
	case directory.Uncached:
		for n := 0; n < m.Mesh.Nodes(); n++ {
			if st := m.caches[n].State(b); st != cache.Invalid {
				return fmt.Errorf("block %d uncached but node %d holds %v", b, n, st)
			}
		}
	}
	return nil
}

// checkSingleWriter verifies that at most one node holds b Modified and
// that a Modified copy excludes every other valid copy.
func (m *Machine) checkSingleWriter(b directory.BlockID) error {
	writer, valid := -1, 0
	for n := 0; n < m.Mesh.Nodes(); n++ {
		switch m.caches[n].State(b) {
		case cache.ModifiedLine:
			if writer >= 0 {
				return fmt.Errorf("block %d modified at both node %d and node %d", b, writer, n)
			}
			writer = n
			valid++
		case cache.SharedLine:
			valid++
		case cache.Invalid:
		}
	}
	if writer >= 0 && valid > 1 {
		return fmt.Errorf("block %d modified at node %d alongside %d other valid copies", b, writer, valid-1)
	}
	return nil
}
