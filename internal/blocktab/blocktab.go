// Package blocktab is the simulator's one block-keyed table: an
// open-addressed hash table from an (owner, block) pair to a value. The
// caches keep their lines in one (owner = cache), a directory slice its
// entries, and the coherence protocol its home transaction queues and
// dirty-fetch contexts. The owner is whatever the table's user
// needs to tell blocks apart by — a node or cache id — or 0 when the block
// alone is the key.
//
// The cells are one power-of-two slice probed linearly from a
// multiplicative hash of the key, and grow by doubling at three-quarters
// load. A delete shifts the rest of its probe run back instead of leaving a
// tombstone, so no amount of invalidate/refill churn lengthens a probe, and
// a table that has grown to its working set never allocates again. Cells
// hold values, not pointers to them: a table of pointer-free values is
// never scanned by the garbage collector.
package blocktab

import "math/bits"

// minCells is the size of a table's first allocation.
const minCells = 16

// Table maps (owner, block) keys to values of type V. Owners must be
// non-negative. The zero Table is empty and allocates nothing until its
// first Put.
type Table[V any] struct {
	cells []cell[V]
	n     int
	// shift is 64 - log2(len(cells)): a hash's top bits index the cells.
	shift uint
}

// cell is one slot of the table; tag 0 marks it empty.
type cell[V any] struct {
	block uint64
	tag   uint32 // owner + 1
	val   V
}

// home returns the cell index the probe for (owner, block) starts at.
//
//simcheck:noalloc
func (t *Table[V]) home(owner int32, block uint64) int {
	return int(((block ^ uint64(owner)<<44) * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the index of (owner, block)'s cell, or -1.
//
//simcheck:noalloc
func (t *Table[V]) find(owner int32, block uint64) int {
	if t.n == 0 {
		return -1
	}
	tag := uint32(owner) + 1
	mask := len(t.cells) - 1
	for i := t.home(owner, block); ; i = (i + 1) & mask {
		c := &t.cells[i]
		if c.tag == tag && c.block == block {
			return i
		}
		if c.tag == 0 {
			return -1
		}
	}
}

// Len returns the number of keys held.
func (t *Table[V]) Len() int { return t.n }

// Get returns the value stored under (owner, block), if any.
//
//simcheck:noalloc
func (t *Table[V]) Get(owner int32, block uint64) (V, bool) {
	if i := t.find(owner, block); i >= 0 {
		return t.cells[i].val, true
	}
	var zero V
	return zero, false
}

// Ref returns a pointer to the value stored under (owner, block), or nil.
// The pointer is valid until the next Put or Delete on the table.
//
//simcheck:noalloc
func (t *Table[V]) Ref(owner int32, block uint64) *V {
	if i := t.find(owner, block); i >= 0 {
		return &t.cells[i].val
	}
	return nil
}

// Put stores v under (owner, block), replacing any value already there.
//
//simcheck:noalloc
func (t *Table[V]) Put(owner int32, block uint64, v V) {
	if owner < 0 {
		panic("blocktab: negative owner")
	}
	// Growing before the probe keeps Put to one probe; at the threshold a
	// replacing Put grows the table one insert early.
	if 4*(t.n+1) > 3*len(t.cells) {
		t.grow()
	}
	tag := uint32(owner) + 1
	mask := len(t.cells) - 1
	for i := t.home(owner, block); ; i = (i + 1) & mask {
		c := &t.cells[i]
		if c.tag == 0 {
			*c = cell[V]{block: block, tag: tag, val: v}
			t.n++
			return
		}
		if c.tag == tag && c.block == block {
			c.val = v
			return
		}
	}
}

// grow doubles the cells (or makes the first ones) and reinserts every key.
func (t *Table[V]) grow() {
	old := t.cells
	size := max(2*len(old), minCells)
	t.cells = make([]cell[V], size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, c := range old {
		if c.tag == 0 {
			continue
		}
		i := t.home(int32(c.tag-1), c.block)
		for t.cells[i].tag != 0 {
			i = (i + 1) & (size - 1)
		}
		t.cells[i] = c
	}
}

// Delete removes (owner, block) and returns the value it held, if any.
// The cells after it in its probe run that may move back do, so every key
// stays reachable from its home without tombstones.
//
//simcheck:noalloc
func (t *Table[V]) Delete(owner int32, block uint64) (V, bool) {
	i := t.find(owner, block)
	if i < 0 {
		var zero V
		return zero, false
	}
	v := t.cells[i].val
	mask := len(t.cells) - 1
	for j := (i + 1) & mask; t.cells[j].tag != 0; j = (j + 1) & mask {
		c := &t.cells[j]
		// The key in cell j may fill the hole at i unless its home lies
		// cyclically in (i, j], where the probe would stop short of i.
		h := t.home(int32(c.tag-1), c.block)
		if (j-h)&mask >= (j-i)&mask {
			t.cells[i] = *c
			i = j
		}
	}
	t.cells[i] = cell[V]{}
	t.n--
	return v, true
}

// Each calls fn for every key in cell order, which depends on the table's
// insertion and deletion history: a caller whose result must not depend
// on it orders or reduces what it visits. fn may modify *v but must not
// Put into or Delete from the table.
func (t *Table[V]) Each(fn func(owner int32, block uint64, v *V)) {
	for i := range t.cells {
		if c := &t.cells[i]; c.tag != 0 {
			fn(int32(c.tag-1), c.block, &c.val)
		}
	}
}
