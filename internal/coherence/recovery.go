package coherence

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// This file implements the home node's i-ack timeout watchdog: the
// protocol-level recovery that makes invalidation transactions survive
// fault-injected worm drops, lost acks and indefinite stalls.
//
// The mechanism: every recovery-tracked transaction (invalTxn.rec) arms a
// deadline at start. If the unacked-sharer set has not drained when the
// deadline fires, the home aborts the transaction at the fabric level
// (Network.AbortTxn kills the transaction's in-flight expendable worms and
// purges its i-ack buffer entries) and falls back to per-sharer unicast
// invalidations — the MI→UI degradation — under a bumped retry generation,
// re-arming the deadline with exponential backoff. Sharers answer retry
// invalidations with unicast acks regardless of the scheme's normal
// acknowledgment framework, so a retried MI-MA transaction completes on the
// UI-UA machinery.
//
// Idempotency holds because acknowledgment evidence is a set, not a count:
// a duplicate ack (a sharer invalidated in two generations, a pre-abort
// gather worm draining late) is a set deletion of an already-deleted
// element, and otherwise ignored. Re-invalidating an already-invalid cache
// line is a no-op in the cache model, so duplicate invals are equally
// harmless.

// armTxnDeadline schedules (or re-schedules) t's recovery deadline:
// Timeout << min(retries, 6) cycles from now, the exponential backoff
// capped so late retries stay responsive.
func (m *Machine) armTxnDeadline(t *invalTxn) {
	shift := t.retries
	if shift > 6 {
		shift = 6
	}
	d := m.Params.Recovery.Timeout << uint(shift)
	t.refs++
	t.deadline = m.Engine.AfterCall(d, m.fnTxnDeadline, t, 0)
}

// txnDeadline fires when t's acknowledgments failed to drain in time:
// abort the fabric-level remains of the current attempt and retry the
// still-unacknowledged sharers with unicast invalidations. It releases the
// deadline's reference to t.
func (m *Machine) txnDeadline(t *invalTxn) {
	t.deadline = sim.Handle{}
	if t.completed {
		m.releaseTxn(t)
		return
	}
	if r := m.Params.Recovery.MaxRetries; r > 0 && t.retries >= r {
		panic(fmt.Sprintf("coherence: txn %d on block %d failed after %d retries (%d sharers unacked)\n%s",
			t.id, t.block, t.retries, len(t.unacked), m.Net.Diagnose()))
	}
	t.retries++
	t.gen++
	m.Metrics.Retries++
	killed := m.Net.AbortTxn(t.id)
	targets := sortedNodes(t.unacked)
	if m.Rec != nil {
		m.recTxn(trace.KindTxnRetry, t, uint64(t.retries), uint64(killed))
	}
	for _, s := range targets {
		s := s
		t.refs++
		m.server(t.home).do(m.Params.SendOccupancy, func() {
			// A sharer acked (by late pre-abort evidence) while this retry
			// send was queued on the controller needs no retry.
			if !t.completed && t.unacked[s] {
				t.homeMsgs++
				pm := m.txnMsg(t)
				pm.retry = true
				t.refs++
				m.send(inval, t.home, s, pm)
			}
			m.releaseTxn(t)
		})
	}
	// The home's own copy, if still pending, is invalidated by the local
	// controller task armed at start — no network crossing, no resend.
	m.armTxnDeadline(t)
	m.releaseTxn(t)
}

// sharerAcked records confirmation that sharer n invalidated (or refreshed)
// its copy: a unicast invalAck, original or retry generation. Duplicates
// are absorbed.
func (t *invalTxn) sharerAcked(m *Machine, n topology.NodeID) {
	if t.completed || !t.unacked[n] {
		return
	}
	delete(t.unacked, n)
	t.checkRecovered(m)
}

// groupAcked records a gatherAck for group gi: the gather worm collected a
// posted i-ack from every member, so the whole group is confirmed at once.
// A late gather from a superseded generation is still valid evidence — it
// cannot have drained at the home without every member having posted.
func (t *invalTxn) groupAcked(m *Machine, gi int) {
	if t.completed {
		return
	}
	hit := false
	for _, mem := range t.groups[gi].Members {
		if t.unacked[mem] {
			delete(t.unacked, mem)
			hit = true
		}
	}
	if !hit {
		return
	}
	t.checkRecovered(m)
}

// homeAcked marks the home's local copy invalidated.
func (t *invalTxn) homeAcked(m *Machine) {
	if t.completed || !t.homePending {
		return
	}
	t.homePending = false
	t.checkRecovered(m)
}

// checkRecovered completes the transaction once every sharer is confirmed
// and the home's own copy is dealt with, cancelling the pending deadline
// and releasing its reference.
func (t *invalTxn) checkRecovered(m *Machine) {
	if t.completed || len(t.unacked) > 0 || t.homePending {
		return
	}
	armed := t.deadline.Valid()
	if armed {
		m.Engine.Cancel(t.deadline)
		t.deadline = sim.Handle{}
	}
	t.complete(m)
	if armed {
		m.releaseTxn(t)
	}
}

// sortedNodes returns set's members in ascending order: retry sends must
// never follow map iteration order, or two runs of one seed would inject
// retries in different orders.
func sortedNodes(set map[topology.NodeID]bool) []topology.NodeID {
	out := make([]topology.NodeID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
