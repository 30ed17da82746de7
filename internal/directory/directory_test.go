package directory

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// newPresence returns an empty presence vector sized for n nodes.
func newPresence(n int) Presence { return make(Presence, (n+63)/64) }

func TestPresenceSetHas(t *testing.T) {
	p := newPresence(128)
	p.Set(0)
	p.Set(63)
	p.Set(64)
	p.Set(127)
	for _, n := range []topology.NodeID{0, 63, 64, 127} {
		if !p.Has(n) {
			t.Fatalf("Has(%d) = false after Set", n)
		}
	}
	if p.Has(1) || p.Has(65) {
		t.Fatal("Has true for unset nodes")
	}
	p.Set(63)
	if p.Count() != 4 {
		t.Fatalf("Count = %d after setting a set node again, want 4", p.Count())
	}
}

func TestPresenceNodesSorted(t *testing.T) {
	p := newPresence(256)
	for _, n := range []topology.NodeID{200, 3, 77, 64, 65} {
		p.Set(n)
	}
	nodes := p.AppendNodes(nil)
	want := []topology.NodeID{3, 64, 65, 77, 200}
	if len(nodes) != len(want) {
		t.Fatalf("Nodes = %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("Nodes = %v, want %v", nodes, want)
		}
	}
}

func TestPresenceReset(t *testing.T) {
	p := newPresence(64)
	p.Set(1)
	p.Set(60)
	p.Reset()
	if p.Count() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestPresenceCountMatchesNodesProperty(t *testing.T) {
	prop := func(ids []uint8) bool {
		p := newPresence(256)
		uniq := map[topology.NodeID]bool{}
		for _, id := range ids {
			n := topology.NodeID(id)
			p.Set(n)
			uniq[n] = true
		}
		return p.Count() == len(uniq) && len(p.AppendNodes(nil)) == len(uniq)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPresenceSetIsolatedProperty(t *testing.T) {
	prop := func(id uint8, others []uint8) bool {
		p := newPresence(256)
		for _, o := range others {
			p.Set(topology.NodeID(o))
		}
		before := p.Count()
		had := p.Has(topology.NodeID(id))
		p.Set(topology.NodeID(id))
		if !p.Has(topology.NodeID(id)) {
			return false
		}
		if grew := p.Count() - before; (had && grew != 0) || (!had && grew != 1) {
			return false
		}
		// Other bits unaffected.
		for _, o := range others {
			if !p.Has(topology.NodeID(o)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryLazyLookup(t *testing.T) {
	d := New(64)
	e := d.Lookup(42)
	if e.State != Uncached {
		t.Fatalf("fresh entry state = %v, want uncached", e.State)
	}
	e.State = Shared
	e.Sharers.Set(3)
	again := d.Lookup(42)
	if again.State != Shared || !again.Sharers.Has(3) {
		t.Fatal("Lookup did not return the same entry")
	}
	if d.Blocks() != 1 {
		t.Fatalf("Blocks = %d, want 1", d.Blocks())
	}
}

func TestHomeMapInterleaves(t *testing.T) {
	h := NewHomeMap(16)
	if h.Home(0) != 0 || h.Home(1) != 1 || h.Home(16) != 0 || h.Home(17) != 1 {
		t.Fatal("home interleaving wrong")
	}
}

func TestHomeMapCoversAllNodesProperty(t *testing.T) {
	h := NewHomeMap(16)
	prop := func(b uint32) bool {
		home := h.Home(BlockID(b))
		return home >= 0 && int(home) < 16
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHomeMapZeroNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHomeMap(0) did not panic")
		}
	}()
	NewHomeMap(0)
}

func TestStateStrings(t *testing.T) {
	if Uncached.String() != "uncached" || Waiting.String() != "waiting" {
		t.Error("state names wrong")
	}
}

// TestForEachAscending pins ForEach's order whatever order the entries
// were materialized in.
func TestForEachAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := New(16)
	want := map[BlockID]bool{}
	for range 500 {
		b := BlockID(rng.Intn(2000))
		d.Lookup(b)
		want[b] = true
	}
	var got []BlockID
	d.ForEach(func(b BlockID, e *Entry) {
		if e != d.Lookup(b) {
			t.Fatalf("ForEach passed block %d a different entry", b)
		}
		got = append(got, b)
	})
	if len(got) != len(want) || !slices.IsSorted(got) {
		t.Fatalf("ForEach visited %d blocks (sorted %v), want %d ascending", len(got), slices.IsSorted(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			t.Fatalf("ForEach visited block %d twice", got[i])
		}
	}
}
