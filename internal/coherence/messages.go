package coherence

import (
	"fmt"

	"repro/internal/directory"
	"repro/internal/topology"
)

// msgType enumerates the protocol messages.
type msgType int

const (
	// Processor-to-home requests.
	readReq  msgType = iota
	writeReq         // read-exclusive or upgrade

	// Home-to-sharer invalidation traffic.
	inval // unicast, multicast or i-reserve payload

	// Sharer-to-home acknowledgments.
	invalAck  // unicast ack
	gatherAck // i-gather worm (one per group)

	// Dirty-block handling.
	fetchReq   // home -> owner: send block back, downgrade to shared
	fetchInval // home -> owner: send block back, invalidate
	fetchReply // owner -> home: the block data

	// Home-to-requester replies.
	readReply  // data, shared
	writeReply // data (or grant), exclusive
)

var msgNames = [...]string{
	"readReq", "writeReq", "inval", "invalAck", "gatherAck",
	"fetchReq", "fetchInval", "fetchReply", "readReply", "writeReply",
}

func (t msgType) String() string {
	if int(t) < len(msgNames) {
		return msgNames[t]
	}
	return fmt.Sprintf("msg(%d)", int(t))
}

// carriesData reports whether the message carries a memory block.
func (t msgType) carriesData() bool {
	switch t {
	case fetchReply, readReply, writeReply:
		return true
	case readReq, writeReq, inval, invalAck, gatherAck, fetchReq, fetchInval:
		return false
	default:
		panic("coherence: carriesData on unknown message type " + t.String())
	}
}

// msg is the protocol payload attached to a worm (Worm.Tag).
type msg struct {
	typ   msgType
	block directory.BlockID
	// from is the node the message semantically originates at (the
	// requester for requests, the sharer for acks).
	from topology.NodeID
	// txn links invalidation traffic to its transaction.
	txn *invalTxn
	// groupIdx identifies which of the transaction's groups this inval or
	// gather worm implements.
	groupIdx int
	// hasCopy marks a writeReq from a requester that still holds a Shared
	// copy (an upgrade): the grant needs no data. Presence bits alone
	// cannot tell: a read squashed by a recovery retry leaves its bit set
	// at the home with no line installed, so the requester states it
	// explicitly.
	hasCopy bool
	// retry marks a recovery-fallback invalidation (home timeout fired):
	// the sharer must answer with a unicast ack regardless of the scheme's
	// normal acknowledgment framework.
	retry bool
	// gen is the transaction's retry generation at send time; handlers
	// that would launch follow-on traffic (the i-gather worm) compare it
	// against the transaction's current generation and drop stale work.
	gen int
	// tok is the issuing operation's trace token, carried on requests so
	// the home-side trace events (directory lookup, reply) can be tied
	// back to the operation. Zero when tracing is off or not applicable.
	tok uint64
}
