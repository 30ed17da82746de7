package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/directory"
)

func TestLookupMissOnEmpty(t *testing.T) {
	c := New()
	if c.Lookup(1, false) {
		t.Fatal("read hit on empty cache")
	}
	if c.Stats().Misses != 1 {
		t.Fatal("miss not counted")
	}
}

func TestFillThenReadHit(t *testing.T) {
	c := New()
	c.Fill(1, SharedLine)
	if !c.Lookup(1, false) {
		t.Fatal("read miss after Fill shared")
	}
	if c.State(1) != SharedLine {
		t.Fatalf("State = %v, want shared", c.State(1))
	}
}

func TestWriteMissesOnSharedLine(t *testing.T) {
	c := New()
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
	c := New()
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
	c := New()
	c.Fill(3, ModifiedLine)
	c.Downgrade(3)
	if c.State(3) != SharedLine {
		t.Fatalf("State = %v after Downgrade, want shared", c.State(3))
	}
}

func TestDowngradeNonModifiedPanics(t *testing.T) {
	c := New()
	c.Fill(3, SharedLine)
	defer func() {
		if recover() == nil {
			t.Error("Downgrade of shared line did not panic")
		}
	}()
	c.Downgrade(3)
}

func TestFillInvalidPanics(t *testing.T) {
	c := New()
	defer func() {
		if recover() == nil {
			t.Error("Fill(Invalid) did not panic")
		}
	}()
	c.Fill(1, Invalid)
}

func TestFillExistingDoesNotEvict(t *testing.T) {
	c := New()
	c.Fill(1, SharedLine)
	c.Fill(2, SharedLine)
	c.Fill(1, ModifiedLine)
	if c.State(2) != SharedLine {
		t.Fatal("upgrading resident line dropped another line")
	}
	if c.State(1) != ModifiedLine {
		t.Fatal("Fill did not upgrade state")
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	c := New()
	for b := directory.BlockID(0); b < 10000; b++ {
		c.Fill(b, SharedLine)
	}
	for b := directory.BlockID(0); b < 10000; b++ {
		if c.State(b) != SharedLine {
			t.Fatalf("block %d dropped by a later fill", b)
		}
	}
}

func TestHitMissAccountingProperty(t *testing.T) {
	// Property: hits + misses equals lookups.
	prop := func(blocks []uint8, writes []bool) bool {
		c := New()
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
// harness builds its shadow memory on: every fill, upgrade, invalidation,
// and downgrade fires exactly one callback with the correct
// from/to pair, and no-op operations stay silent.
func TestOnChangeObservesEveryTransition(t *testing.T) {
	type change struct {
		b        directory.BlockID
		from, to LineState
	}
	var log []change
	c := New()
	c.OnChange = func(b directory.BlockID, from, to LineState) {
		log = append(log, change{b, from, to})
	}
	c.Fill(1, SharedLine)   // install
	c.Fill(1, ModifiedLine) // upgrade
	c.Fill(2, SharedLine)   // install
	c.Fill(3, SharedLine)   // install
	c.Invalidate(2)         // drop the shared line
	c.Invalidate(2)         // no-op: already gone
	c.Fill(4, ModifiedLine) // install
	c.Downgrade(4)          // M -> S
	want := []change{
		{1, Invalid, SharedLine},
		{1, SharedLine, ModifiedLine},
		{2, Invalid, SharedLine},
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
