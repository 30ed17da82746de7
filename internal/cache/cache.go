// Package cache models each DSM node's coherent cache at the granularity
// the coherence protocol needs: per-block line states (invalid / shared /
// modified). Caches are unbounded, the paper's "no conflict misses"
// machine: a line leaves only by invalidation. Timing (hit, miss,
// invalidate latencies) lives in the protocol configuration; this package
// tracks state only.
package cache

import (
	"repro/internal/blocktab"
	"repro/internal/directory"
)

// LineState is the local state of a cached block.
type LineState int

const (
	// Invalid: not present.
	Invalid LineState = iota
	// SharedLine: present read-only.
	SharedLine
	// ModifiedLine: present with exclusive write permission (dirty).
	ModifiedLine
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "invalid"
	case SharedLine:
		return "shared"
	case ModifiedLine:
		return "modified"
	}
	return "linestate(?)"
}

// Stats tallies cache events.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Invalidates uint64
}

// Lines is the line storage a set of caches share: one table from (cache,
// block) to the line's state. It holds only valid lines and no pointers:
// an invalidated line is deleted from the table, so the steady
// invalidate/refill churn of the coherence protocol allocates nothing once
// the table has grown to the working set, and a machine's caches together
// allocate as one.
type Lines struct {
	table blocktab.Table[LineState]
}

// Cache returns cache id of the set sharing l. Every cache of the set
// needs its own id.
func (l *Lines) Cache(id int) Cache {
	return Cache{lines: l, id: int32(id)}
}

// Cache is one node's cache. A hit is one table probe.
type Cache struct {
	lines *Lines
	id    int32
	stats Stats

	// OnChange, when non-nil, observes every line-state transition: fills,
	// invalidations and downgrades. Observers must not call back into the
	// cache. The correctness oracle uses this hook to shadow the value each
	// node would read from each block.
	OnChange func(b directory.BlockID, from, to LineState)
}

func (c *Cache) notify(b directory.BlockID, from, to LineState) {
	if c.OnChange != nil {
		c.OnChange(b, from, to)
	}
}

// New returns a cache on line storage of its own.
func New() Cache {
	return new(Lines).Cache(0)
}

// line returns block's line state, or nil if the cache does not hold it.
// The pointer is valid until the next fill or invalidation in the set.
//
//simcheck:noalloc
func (c *Cache) line(b directory.BlockID) *LineState {
	return c.lines.table.Ref(c.id, uint64(b))
}

// State returns the current state of block.
func (c *Cache) State(b directory.BlockID) LineState {
	if l := c.line(b); l != nil {
		return *l
	}
	return Invalid
}

// Lookup records an access for hit/miss accounting and reports whether it
// hits: reads hit in SharedLine or ModifiedLine; writes hit only in
// ModifiedLine.
//
//simcheck:noalloc
func (c *Cache) Lookup(b directory.BlockID, write bool) bool {
	if l := c.line(b); l != nil && (!write || *l == ModifiedLine) {
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// Fill installs block in the given state after a miss completes.
//
//simcheck:noalloc
func (c *Cache) Fill(b directory.BlockID, s LineState) {
	if s == Invalid {
		panic("cache: Fill with Invalid state")
	}
	if l := c.line(b); l != nil {
		prev := *l
		*l = s
		c.notify(b, prev, s)
		return
	}
	c.lines.table.Put(c.id, uint64(b), s)
	c.notify(b, Invalid, s)
}

// Invalidate drops block from the cache (invalidation request from home).
// It returns the state the line was in so the protocol can detect races
// (invalidating an Invalid line is allowed and returns Invalid).
//
//simcheck:noalloc
func (c *Cache) Invalidate(b directory.BlockID) LineState {
	prev, ok := c.lines.table.Delete(c.id, uint64(b))
	if !ok {
		return Invalid
	}
	c.stats.Invalidates++
	c.notify(b, prev, Invalid)
	return prev
}

// Downgrade moves a ModifiedLine block to SharedLine (remote read of a
// dirty block). Downgrading a non-modified line is a protocol bug.
func (c *Cache) Downgrade(b directory.BlockID) {
	l := c.line(b)
	if l == nil || *l != ModifiedLine {
		panic("cache: Downgrade of non-modified line")
	}
	*l = SharedLine
	c.notify(b, ModifiedLine, SharedLine)
}

// Stats returns a copy of the event tallies.
func (c *Cache) Stats() Stats { return c.stats }
