package network

import (
	"fmt"
)

// iackEntry is one invalidation-acknowledgment buffer entry at a router
// interface (Fig. 7 of the paper). An i-reserve worm reserves an entry as
// it passes; the local node posts its ack into the entry once the cache
// invalidation completes; an i-gather worm collects the posted ack and
// frees the entry. In virtual-cut-through deferred-delivery mode the entry
// additionally provides a message field that can park a blocked gather
// worm.
type iackEntry struct {
	txn    uint64
	posted bool
	// A gather worm blocked on the unposted ack: parked in the entry's
	// message field (VCT deferred mode, parked == true) or stalled in place
	// holding its channels (blocking mode). gatherI is its path index.
	gather  *Worm
	gatherI int32
	parked  bool
}

// iackFile is the per-router-interface set of i-ack buffers.
type iackFile struct {
	entries []iackEntry
	free    int
	// reserveWaiters queues reserve worms stalled on a full buffer file
	// (hold-and-wait, as the paper describes). Grants are dispatched by the
	// Network when an entry frees.
	reserveWaiters waitQueue
	peakUsed       int
}

// init gives the file its first n entries of free, all empty, and returns
// the rest of free.
func (f *iackFile) init(free []iackEntry, n int) []iackEntry {
	f.entries, f.free = free[:n:n], n
	for i := range f.entries {
		f.entries[i] = iackEntry{txn: noTxn}
	}
	return free[n:]
}

const noTxn = ^uint64(0)

// reserve allocates an entry for txn, reporting false when the file is full
// (the caller then queues a waiter on reserveWaiters). Multiple reservations
// for the same txn at the same interface are a protocol bug and panic.
func (f *iackFile) reserve(txn uint64) bool {
	if f.find(txn) >= 0 {
		panic(fmt.Sprintf("network: duplicate i-ack reservation for txn %d", txn))
	}
	if f.free == 0 {
		return false
	}
	i := f.findFree()
	f.entries[i] = iackEntry{txn: txn}
	f.free--
	if used := len(f.entries) - f.free; used > f.peakUsed {
		f.peakUsed = used
	}
	return true
}

// post records the local node's invalidation acknowledgment for txn and
// returns the entry, whose gather fields identify a waiting gather worm
// (if any) for the Network to resume.
func (f *iackFile) post(txn uint64) *iackEntry {
	i := f.find(txn)
	if i < 0 {
		panic(fmt.Sprintf("network: i-ack post for unreserved txn %d", txn))
	}
	e := &f.entries[i]
	if e.posted {
		panic(fmt.Sprintf("network: duplicate i-ack post for txn %d", txn))
	}
	e.posted = true
	return e
}

// collect attempts to pick up the posted ack for txn on behalf of a gather
// worm. It returns whether the ack was present; when it was, the entry is
// freed and any unblocked reserve waiter is returned for dispatch.
func (f *iackFile) collect(txn uint64) (ok bool, wt waiter, granted bool) {
	i := f.find(txn)
	if i < 0 {
		panic(fmt.Sprintf("network: i-ack collect for unreserved txn %d", txn))
	}
	if !f.entries[i].posted {
		return false, waiter{}, false
	}
	wt, granted = f.releaseEntry(i)
	return true, wt, granted
}

// await registers a blocked gather worm against txn's entry: either parked
// in the entry's message field (VCT deferred mode, parked == true) or
// stalled in place (blocking mode).
func (f *iackFile) await(txn uint64, w *Worm, i int32, parked bool) {
	j := f.find(txn)
	if j < 0 {
		panic(fmt.Sprintf("network: i-ack await for unreserved txn %d", txn))
	}
	e := &f.entries[j]
	if e.gather != nil {
		panic(fmt.Sprintf("network: second gather worm waiting on txn %d", txn))
	}
	e.gather = w
	e.gatherI = i
	e.parked = parked
}

// finish frees txn's entry after a previously-waiting gather proceeds. Any
// unblocked reserve waiter is returned for dispatch.
func (f *iackFile) finish(txn uint64) (wt waiter, granted bool) {
	i := f.find(txn)
	if i < 0 {
		panic(fmt.Sprintf("network: i-ack finish for unreserved txn %d", txn))
	}
	return f.releaseEntry(i)
}

func (f *iackFile) releaseEntry(i int) (wt waiter, granted bool) {
	f.entries[i] = iackEntry{txn: noTxn}
	f.free++
	if f.reserveWaiters.empty() {
		return waiter{}, false
	}
	return f.reserveWaiters.pop(), true
}

// purge frees txn's entry regardless of its state — reserved, posted, or
// holding a parked/waiting gather worm. It returns whether an entry was
// found (so callers can loop until every entry for txn is gone), the
// discarded gather worm if one was waiting, and any unblocked reserve
// waiter for dispatch.
func (f *iackFile) purge(txn uint64) (found bool, discarded *Worm, wt waiter, granted bool) {
	for i := range f.entries {
		if f.entries[i].txn == txn {
			discarded = f.entries[i].gather
			wt, granted = f.releaseEntry(i)
			return true, discarded, wt, granted
		}
	}
	return false, nil, waiter{}, false
}

func (f *iackFile) find(txn uint64) int {
	if txn == noTxn {
		panic("network: invalid txn id")
	}
	for i := range f.entries {
		if f.entries[i].txn == txn {
			return i
		}
	}
	return -1
}

func (f *iackFile) findFree() int {
	for i := range f.entries {
		if f.entries[i].txn == noTxn {
			return i
		}
	}
	panic("network: iackFile.findFree with free == 0 accounting bug")
}
