// Package directory implements the fully-mapped directory of the paper's
// DSM: one entry per memory block holding a protocol state and a presence
// bit per node [44]. Blocks are distributed across home nodes by
// interleaving block numbers.
package directory

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/blocktab"
	"repro/internal/topology"
)

// BlockID identifies a memory block (cache-line-sized, aligned).
type BlockID uint64

// State is the directory state of a block.
type State int

const (
	// Uncached: no node holds a copy.
	Uncached State = iota
	// Shared: one or more nodes hold read-only copies (presence bits set).
	Shared
	// Exclusive: exactly one node holds a writable (dirty) copy.
	Exclusive
	// Waiting: an invalidation or ownership transfer is in flight; new
	// requests for the block must be deferred.
	Waiting
)

var stateNames = [...]string{"uncached", "shared", "exclusive", "waiting"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Presence is a bit vector of sharer nodes. Node IDs index bits.
type Presence []uint64

// Set marks node as present.
func (p Presence) Set(n topology.NodeID) { p[n/64] |= 1 << (uint(n) % 64) }

// Has reports whether node is present.
func (p Presence) Has(n topology.NodeID) bool { return p[n/64]&(1<<(uint(n)%64)) != 0 }

// Count returns the number of present nodes.
func (p Presence) Count() int {
	total := 0
	for _, w := range p {
		total += bits.OnesCount64(w)
	}
	return total
}

// AppendNodes appends the present nodes to buf in ascending ID order and
// returns the result, so a caller can reuse one buffer across lookups.
//
//simcheck:noalloc
func (p Presence) AppendNodes(buf []topology.NodeID) []topology.NodeID {
	for wi, w := range p {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			buf = append(buf, topology.NodeID(wi*64+b))
			w &^= 1 << uint(b)
		}
	}
	return buf
}

// Reset clears every bit.
func (p Presence) Reset() {
	for i := range p {
		p[i] = 0
	}
}

// Entry is one directory entry.
type Entry struct {
	State State
	// Sharers is valid in Shared state (and transiently in Waiting).
	Sharers Presence
	// Owner is valid in Exclusive state.
	Owner topology.NodeID
}

// Directory is one node's slice of the distributed full-map directory: it
// holds the entries for every block whose home is this node. Entries are
// created lazily in the Uncached state, carved with their presence vectors
// from chunks that double in size, so materializing a block costs an
// allocation only at each chunk boundary.
type Directory struct {
	nodes   int
	entries blocktab.Table[*Entry]
	// slab and words are the unused tails of the current entry and
	// presence-word chunks.
	slab  []Entry
	words []uint64
}

// New returns an empty directory for a machine with n nodes. It allocates
// nothing until the first Lookup.
func New(n int) Directory {
	return Directory{nodes: n}
}

// Lookup returns the entry for block, creating it Uncached on first touch.
func (d *Directory) Lookup(block BlockID) *Entry {
	if e, ok := d.entries.Get(0, uint64(block)); ok {
		return e
	}
	w := (d.nodes + 63) / 64
	if len(d.slab) == 0 {
		chunk := min(max(d.entries.Len(), 8), 1024)
		d.slab = make([]Entry, chunk)
		d.words = make([]uint64, chunk*w)
	}
	e := &d.slab[0]
	d.slab = d.slab[1:]
	*e = Entry{State: Uncached, Sharers: Presence(d.words[:w:w])}
	d.words = d.words[w:]
	d.entries.Put(0, uint64(block), e)
	return e
}

// Blocks returns the number of entries materialized so far.
func (d *Directory) Blocks() int { return d.entries.Len() }

// ForEach visits every materialized entry in ascending BlockID order.
// The order is fixed so that anything built from a traversal — invariant
// failure reports, dumps — is deterministic rather than dependent on the
// table's cell order, which follows its insertion history.
func (d *Directory) ForEach(fn func(BlockID, *Entry)) {
	ids := make([]BlockID, 0, d.entries.Len())
	d.entries.Each(func(_ int32, b uint64, _ **Entry) { ids = append(ids, BlockID(b)) })
	slices.Sort(ids)
	for _, b := range ids {
		e, _ := d.entries.Get(0, uint64(b))
		fn(b, e)
	}
}

// HomeMap distributes blocks across nodes by low-order interleaving, the
// conventional DSM placement.
type HomeMap struct {
	nodes int
}

// NewHomeMap returns a home map for n nodes.
func NewHomeMap(n int) *HomeMap {
	if n <= 0 {
		panic("directory: HomeMap needs at least one node")
	}
	return &HomeMap{nodes: n}
}

// Home returns the home node of a block.
func (h *HomeMap) Home(block BlockID) topology.NodeID {
	return topology.NodeID(uint64(block) % uint64(h.nodes))
}
