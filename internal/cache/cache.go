// Package cache models each DSM node's coherent cache at the granularity
// the coherence protocol needs: per-block line states (invalid / shared /
// modified) with an optional capacity bound and LRU replacement. Timing
// (hit, miss, invalidate latencies) lives in the protocol configuration;
// this package tracks state and replacement only.
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

type line struct {
	state LineState
	// lru is a monotonically increasing touch stamp.
	lru uint64
}

// Stats tallies cache events.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Invalidates uint64
	Evictions   uint64
}

// Lines is the line storage a set of caches share: one table from (cache,
// block) to the line. It holds only valid lines and no pointers: an
// invalidated or evicted line is deleted from the table, so the steady
// invalidate/refill churn of the coherence protocol allocates nothing once
// the table has grown to the working set, and a machine's caches together
// allocate as one.
type Lines struct {
	table blocktab.Table[line]
}

// Cache returns cache id of the set sharing l, holding up to capacity
// lines (0 = unbounded). Every cache of the set needs its own id.
func (l *Lines) Cache(id, capacity int) Cache {
	if capacity < 0 {
		panic("cache: negative capacity")
	}
	return Cache{lines: l, id: int32(id), capacity: capacity}
}

// Cache is one node's cache. Capacity is in lines; zero means unbounded
// (the paper-style "no conflict misses" configuration). A hit is one table
// probe.
type Cache struct {
	lines    *Lines
	id       int32
	capacity int
	valid    int
	clock    uint64
	stats    Stats

	// OnChange, when non-nil, observes every line-state transition: fills,
	// invalidations, downgrades and evictions. Observers must not call back
	// into the cache. The correctness oracle uses this hook to shadow the
	// value each node would read from each block.
	OnChange func(b directory.BlockID, from, to LineState)
}

func (c *Cache) notify(b directory.BlockID, from, to LineState) {
	if c.OnChange != nil {
		c.OnChange(b, from, to)
	}
}

// New returns a cache holding up to capacity lines (0 = unbounded) on
// line storage of its own.
func New(capacity int) Cache {
	return new(Lines).Cache(0, capacity)
}

// line returns block's line, or nil if the cache does not hold it. The
// pointer is valid until the next fill or drop in the set.
//
//simcheck:noalloc
func (c *Cache) line(b directory.BlockID) *line {
	return c.lines.table.Ref(c.id, uint64(b))
}

// State returns the current state of block.
func (c *Cache) State(b directory.BlockID) LineState {
	if l := c.line(b); l != nil {
		return l.state
	}
	return Invalid
}

// Lookup records an access for purposes of hit/miss accounting and LRU,
// and reports whether the access hits: reads hit in SharedLine or
// ModifiedLine; writes hit only in ModifiedLine.
//
//simcheck:noalloc
func (c *Cache) Lookup(b directory.BlockID, write bool) bool {
	c.clock++
	if l := c.line(b); l != nil {
		l.lru = c.clock
		if !write || l.state == ModifiedLine {
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Fill installs block in the given state after a miss completes. It returns
// the block evicted to make room, if any (victim selection is LRU among
// valid lines; ModifiedLine victims are reported so the protocol can write
// them back).
//
//simcheck:noalloc
func (c *Cache) Fill(b directory.BlockID, s LineState) (victim directory.BlockID, victimState LineState, evicted bool) {
	if s == Invalid {
		panic("cache: Fill with Invalid state")
	}
	c.clock++
	if l := c.line(b); l != nil {
		prev := l.state
		l.state, l.lru = s, c.clock
		c.notify(b, prev, s)
		return 0, Invalid, false
	}
	if c.capacity > 0 && c.valid >= c.capacity {
		victim, victimState = c.evictLRU()
		evicted = true
		c.stats.Evictions++
		c.notify(victim, victimState, Invalid)
	}
	c.lines.table.Put(c.id, uint64(b), line{state: s, lru: c.clock})
	c.valid++
	c.notify(b, Invalid, s)
	return victim, victimState, evicted
}

// drop deletes block b's line and returns it.
//
//simcheck:noalloc
func (c *Cache) drop(b directory.BlockID) (line, bool) {
	l, ok := c.lines.table.Delete(c.id, uint64(b))
	if ok {
		c.valid--
	}
	return l, ok
}

// Invalidate drops block from the cache (invalidation request from home).
// It returns the state the line was in so the protocol can detect races
// (invalidating an Invalid line is allowed and returns Invalid).
//
//simcheck:noalloc
func (c *Cache) Invalidate(b directory.BlockID) LineState {
	l, ok := c.drop(b)
	if !ok {
		return Invalid
	}
	prev := l.state
	c.stats.Invalidates++
	c.notify(b, prev, Invalid)
	return prev
}

// Downgrade moves a ModifiedLine block to SharedLine (remote read of a
// dirty block). Downgrading a non-modified line is a protocol bug.
func (c *Cache) Downgrade(b directory.BlockID) {
	l := c.line(b)
	if l == nil || l.state != ModifiedLine {
		panic("cache: Downgrade of non-modified line")
	}
	l.state = SharedLine
	c.notify(b, ModifiedLine, SharedLine)
}

// Stats returns a copy of the event tallies.
func (c *Cache) Stats() Stats { return c.stats }

// ValidLines returns the number of valid lines currently held.
func (c *Cache) ValidLines() int { return c.valid }

// evictLRU drops the cache's least recently touched line, the lower block
// on a tie, so the victim does not depend on the table's cell order. It
// scans the whole shared table: only bounded caches evict, and they are
// small.
func (c *Cache) evictLRU() (directory.BlockID, LineState) {
	var victim uint64
	var vl *line
	c.lines.table.Each(func(owner int32, b uint64, l *line) {
		if owner == c.id && (vl == nil || l.lru < vl.lru || (l.lru == vl.lru && b < victim)) {
			victim, vl = b, l
		}
	})
	if vl == nil {
		panic("cache: evictLRU on empty cache")
	}
	vs := vl.state
	c.drop(directory.BlockID(victim))
	return directory.BlockID(victim), vs
}
