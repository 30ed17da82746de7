package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/directory"
)

func TestLookupMissOnEmpty(t *testing.T) {
	c := New(0)
	if c.Lookup(1, false) {
		t.Fatal("read hit on empty cache")
	}
	if c.Stats().Misses != 1 {
		t.Fatal("miss not counted")
	}
}

func TestFillThenReadHit(t *testing.T) {
	c := New(0)
	c.Fill(1, SharedLine)
	if !c.Lookup(1, false) {
		t.Fatal("read miss after Fill shared")
	}
	if c.State(1) != SharedLine {
		t.Fatalf("State = %v, want shared", c.State(1))
	}
}

func TestWriteMissesOnSharedLine(t *testing.T) {
	c := New(0)
	c.Fill(1, SharedLine)
	if c.Lookup(1, true) {
		t.Fatal("write hit on shared line (needs upgrade)")
	}
	c.Fill(1, ModifiedLine)
	if !c.Lookup(1, true) {
		t.Fatal("write miss on modified line")
	}
}

func TestInvalidateDropsLine(t *testing.T) {
	c := New(0)
	c.Fill(7, SharedLine)
	if prev := c.Invalidate(7); prev != SharedLine {
		t.Fatalf("Invalidate returned %v, want shared", prev)
	}
	if c.State(7) != Invalid {
		t.Fatal("line still valid after Invalidate")
	}
	if prev := c.Invalidate(7); prev != Invalid {
		t.Fatalf("second Invalidate returned %v, want invalid", prev)
	}
	if c.Stats().Invalidates != 1 {
		t.Fatalf("Invalidates = %d, want 1 (invalid drops don't count)", c.Stats().Invalidates)
	}
}

func TestDowngradeModified(t *testing.T) {
	c := New(0)
	c.Fill(3, ModifiedLine)
	c.Downgrade(3)
	if c.State(3) != SharedLine {
		t.Fatalf("State = %v after Downgrade, want shared", c.State(3))
	}
}

func TestDowngradeNonModifiedPanics(t *testing.T) {
	c := New(0)
	c.Fill(3, SharedLine)
	defer func() {
		if recover() == nil {
			t.Error("Downgrade of shared line did not panic")
		}
	}()
	c.Downgrade(3)
}

func TestFillInvalidPanics(t *testing.T) {
	c := New(0)
	defer func() {
		if recover() == nil {
			t.Error("Fill(Invalid) did not panic")
		}
	}()
	c.Fill(1, Invalid)
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Fill(1, SharedLine)
	c.Fill(2, SharedLine)
	c.Lookup(1, false) // touch 1 so 2 is LRU
	victim, vs, evicted := c.Fill(3, SharedLine)
	if !evicted || victim != 2 || vs != SharedLine {
		t.Fatalf("evicted %v (%v, %v), want block 2 shared", victim, vs, evicted)
	}
	if c.State(1) != SharedLine || c.State(3) != SharedLine || c.State(2) != Invalid {
		t.Fatal("post-eviction states wrong")
	}
	if c.Stats().Evictions != 1 {
		t.Fatal("eviction not counted")
	}
}

func TestEvictionReportsModifiedVictim(t *testing.T) {
	c := New(1)
	c.Fill(1, ModifiedLine)
	victim, vs, evicted := c.Fill(2, SharedLine)
	if !evicted || victim != 1 || vs != ModifiedLine {
		t.Fatalf("evicted %v (%v, %v), want modified block 1", victim, vs, evicted)
	}
}

func TestFillExistingDoesNotEvict(t *testing.T) {
	c := New(1)
	c.Fill(1, SharedLine)
	_, _, evicted := c.Fill(1, ModifiedLine)
	if evicted {
		t.Fatal("upgrading resident line evicted something")
	}
	if c.State(1) != ModifiedLine {
		t.Fatal("Fill did not upgrade state")
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	c := New(0)
	for b := directory.BlockID(0); b < 10000; b++ {
		if _, _, evicted := c.Fill(b, SharedLine); evicted {
			t.Fatal("unbounded cache evicted")
		}
	}
	if c.ValidLines() != 10000 {
		t.Fatalf("ValidLines = %d, want 10000", c.ValidLines())
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestCapacityInvariantProperty(t *testing.T) {
	// Property: a capacity-k cache never holds more than k valid lines, for
	// any access pattern.
	prop := func(blocks []uint8, cap8 uint8) bool {
		capacity := int(cap8%8) + 1
		c := New(capacity)
		for _, b := range blocks {
			bid := directory.BlockID(b % 32)
			if !c.Lookup(bid, false) {
				c.Fill(bid, SharedLine)
			}
			if c.ValidLines() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHitMissAccountingProperty(t *testing.T) {
	// Property: hits + misses equals lookups.
	prop := func(blocks []uint8, writes []bool) bool {
		c := New(0)
		lookups := 0
		for i, b := range blocks {
			w := i < len(writes) && writes[i]
			if !c.Lookup(directory.BlockID(b), w) {
				if w {
					c.Fill(directory.BlockID(b), ModifiedLine)
				} else {
					c.Fill(directory.BlockID(b), SharedLine)
				}
			}
			lookups++
		}
		st := c.Stats()
		return st.Hits+st.Misses == uint64(lookups)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLineStateStrings(t *testing.T) {
	if Invalid.String() != "invalid" || SharedLine.String() != "shared" || ModifiedLine.String() != "modified" {
		t.Error("line state names wrong")
	}
}

// TestOnChangeObservesEveryTransition pins the observer hook the verification
// harness builds its shadow memory on: every fill, upgrade, eviction,
// invalidation, and downgrade fires exactly one callback with the correct
// from/to pair, and no-op operations stay silent.
func TestOnChangeObservesEveryTransition(t *testing.T) {
	type change struct {
		b        directory.BlockID
		from, to LineState
	}
	var log []change
	c := New(2)
	c.OnChange = func(b directory.BlockID, from, to LineState) {
		log = append(log, change{b, from, to})
	}
	c.Fill(1, SharedLine)   // install
	c.Fill(1, ModifiedLine) // upgrade
	c.Fill(2, SharedLine)   // install
	c.Fill(3, SharedLine)   // evicts block 1 (LRU: last touched before 2), installs 3
	c.Invalidate(2)         // drop the shared line
	c.Invalidate(2)         // no-op: already gone
	c.Fill(4, ModifiedLine) // install
	c.Downgrade(4)          // M -> S
	want := []change{
		{1, Invalid, SharedLine},
		{1, SharedLine, ModifiedLine},
		{2, Invalid, SharedLine},
		{1, ModifiedLine, Invalid}, // eviction of the dirty LRU victim
		{3, Invalid, SharedLine},
		{2, SharedLine, Invalid},
		{4, Invalid, ModifiedLine},
		{4, ModifiedLine, SharedLine},
	}
	if len(log) != len(want) {
		t.Fatalf("observed %d transitions, want %d: %+v", len(log), len(want), log)
	}
	for i, w := range want {
		if log[i] != w {
			t.Fatalf("transition %d: got %+v, want %+v", i, log[i], w)
		}
	}
}

// TestEvictionIgnoresFillOrder pins that a bounded cache's victims depend
// only on its own touch order, not on the shared line table's cell order,
// which follows the table's whole insertion and deletion history: lines
// filled in a different order, between another cache's fills and
// invalidations, then touched in one fixed order, are evicted in that order.
func TestEvictionIgnoresFillOrder(t *testing.T) {
	const capacity = 12
	rng := rand.New(rand.NewSource(1))
	for range 20 {
		var lines Lines
		c := lines.Cache(0, capacity)
		other := lines.Cache(1, 0)
		for i, b := range rng.Perm(capacity) {
			other.Fill(directory.BlockID(rng.Intn(64)), SharedLine)
			c.Fill(directory.BlockID(b), SharedLine)
			if i%3 == 0 {
				other.Invalidate(directory.BlockID(rng.Intn(64)))
			}
		}
		for b := range capacity {
			c.Lookup(directory.BlockID(b), false)
		}
		for b := capacity; b < 3*capacity; b++ {
			victim, _, evicted := c.Fill(directory.BlockID(b), SharedLine)
			if want := directory.BlockID(b - capacity); !evicted || victim != want {
				t.Fatalf("fill %d evicted %d (%v), want %d", b, victim, evicted, want)
			}
		}
	}
}
