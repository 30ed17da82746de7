package blocktab

import (
	"bytes"
	"math/rand"
	"testing"
)

type key struct {
	owner int32
	block uint64
}

// clusterKeys returns n distinct keys whose probes all start in the last
// cell of any table up to 256 cells, so they collide with each other and
// their probe runs wrap around past the end of the cells.
func clusterKeys(n int) []key {
	var t Table[int]
	t.shift = 64 - 8
	var ks []key
	for b := uint64(0); len(ks) < n; b++ {
		for o := int32(0); o < 3 && len(ks) < n; o++ {
			if t.home(o, b) == 255 {
				ks = append(ks, key{o, b})
			}
		}
	}
	return ks
}

// keyPool mixes colliding, wrapping keys with ordinary ones.
func keyPool(rng *rand.Rand) []key {
	ks := clusterKeys(24)
	for range 40 {
		ks = append(ks, key{int32(rng.Intn(8)), uint64(rng.Intn(64))})
	}
	return ks
}

// checkTable compares t with the oracle and checks the table's own
// invariants: the count, and that no empty cell lies between any key and
// its home, so every key is reachable by its probe.
func checkTable(t *testing.T, tab *Table[int], want map[key]int) {
	t.Helper()
	if tab.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(want))
	}
	seen := 0
	mask := len(tab.cells) - 1
	for j, c := range tab.cells {
		if c.tag == 0 {
			continue
		}
		seen++
		for i := tab.home(int32(c.tag-1), c.block); i != j; i = (i + 1) & mask {
			if tab.cells[i].tag == 0 {
				t.Fatalf("key (%d, %d) in cell %d is cut off from its home by empty cell %d",
					c.tag-1, c.block, j, i)
			}
		}
	}
	if seen != len(want) {
		t.Fatalf("%d occupied cells, want %d", seen, len(want))
	}
	got := map[key]int{}
	tab.Each(func(o int32, b uint64, v *int) { got[key{o, b}] = *v })
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Fatalf("Each: key %v = %d (present %v), want %d", k, g, ok, v)
		}
		if g, ok := tab.Get(k.owner, k.block); !ok || g != v {
			t.Fatalf("Get%v = %d, %v; want %d, true", k, g, ok, v)
		}
	}
}

// apply runs one operation on the table and the oracle and compares what
// each returns.
func apply(t *testing.T, tab *Table[int], want map[key]int, op byte, k key, v int) {
	t.Helper()
	switch op % 4 {
	case 0:
		tab.Put(k.owner, k.block, v)
		want[k] = v
	case 1:
		g, ok := tab.Get(k.owner, k.block)
		w, wok := want[k]
		if g != w || ok != wok {
			t.Fatalf("Get%v = %d, %v; want %d, %v", k, g, ok, w, wok)
		}
	case 2:
		r := tab.Ref(k.owner, k.block)
		if _, ok := want[k]; ok != (r != nil) {
			t.Fatalf("Ref%v present = %v, want %v", k, r != nil, ok)
		}
		if r != nil {
			*r += v
			want[k] += v
		}
	case 3:
		g, ok := tab.Delete(k.owner, k.block)
		w, wok := want[k]
		if g != w || ok != wok {
			t.Fatalf("Delete%v = %d, %v; want %d, %v", k, g, ok, w, wok)
		}
		delete(want, k)
	}
}

// TestTableMatchesMap runs seeded random Put/Get/Ref/Delete sequences
// against a map oracle over a pool of colliding, wrapping keys, through
// growth and back-shift deletes, checking the invariants after every step.
func TestTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := keyPool(rng)
		var tab Table[int]
		want := map[key]int{}
		for step := range 2000 {
			// Bias toward inserts early so the table grows, and toward
			// deletes late so it drains.
			op := byte(rng.Intn(4))
			if step < 500 && rng.Intn(3) == 0 {
				op = 0
			} else if step > 1500 && rng.Intn(3) == 0 {
				op = 3
			}
			apply(t, &tab, want, op, pool[rng.Intn(len(pool))], rng.Intn(1000))
			checkTable(t, &tab, want)
		}
	}
}

// TestDeleteWrapsAround deletes from the front of a probe run that wraps
// past the last cell: the keys behind it, homed at the last cell and
// stored in the first ones, must shift back across the boundary.
func TestDeleteWrapsAround(t *testing.T) {
	ks := clusterKeys(6)
	var tab Table[int]
	want := map[key]int{}
	for i, k := range ks {
		apply(t, &tab, want, 0, k, i)
	}
	if len(tab.cells) != minCells || tab.cells[0].tag == 0 {
		t.Fatalf("want a wrapped run in %d cells, got %d cells, cell 0 empty %v",
			minCells, len(tab.cells), tab.cells[0].tag == 0)
	}
	for _, k := range ks {
		apply(t, &tab, want, 3, k, 0)
		checkTable(t, &tab, want)
	}
	for _, c := range tab.cells {
		if c != (cell[int]{}) {
			t.Fatalf("emptied table still holds %+v", c)
		}
	}
}

// TestZeroTableAllocatesNothing pins the lazy allocation a machine's
// construction relies on: reads and deletes on an empty table allocate
// nothing.
func TestZeroTableAllocatesNothing(t *testing.T) {
	var tab Table[int]
	avg := testing.AllocsPerRun(100, func() {
		tab.Get(1, 2)
		tab.Ref(1, 2)
		tab.Delete(1, 2)
		tab.Each(func(int32, uint64, *int) {})
	})
	if avg != 0 || tab.cells != nil {
		t.Fatalf("empty table allocated (%v allocs, cells %v)", avg, tab.cells != nil)
	}
}

// TestChurnAllocatesNothing pins the steady state: once the table has
// grown to its working set, deleting and re-inserting keys allocates
// nothing and never grows the cells.
func TestChurnAllocatesNothing(t *testing.T) {
	var tab Table[int]
	for b := range uint64(100) {
		tab.Put(int32(b%4), b, int(b))
	}
	cells := len(tab.cells)
	b := uint64(0)
	avg := testing.AllocsPerRun(1000, func() {
		tab.Delete(int32(b%4), b)
		tab.Put(int32((b+100)%4), b+100, 0)
		b++
	})
	if avg != 0 || len(tab.cells) != cells {
		t.Fatalf("churn: %v allocs per step, cells %d -> %d", avg, cells, len(tab.cells))
	}
}

// TestPutNegativeOwnerPanics checks the one owner the tags cannot hold.
func TestPutNegativeOwnerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put with owner -1 did not panic")
		}
	}()
	var tab Table[int]
	tab.Put(-1, 0, 0)
}

// FuzzTable drives the table and a map oracle with one operation per two
// input bytes: the first picks Put, Get, Ref or Delete, the second a key
// from a pool of colliding, wrapping and ordinary keys.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 3, 0, 1, 1, 1, 2})
	f.Add(bytes.Repeat([]byte{0, 5, 0, 30, 3, 5, 2, 30}, 40))
	f.Fuzz(func(t *testing.T, ops []byte) {
		pool := keyPool(rand.New(rand.NewSource(1)))
		var tab Table[int]
		want := map[key]int{}
		for i := 0; i+1 < len(ops); i += 2 {
			apply(t, &tab, want, ops[i], pool[int(ops[i+1])%len(pool)], i)
			checkTable(t, &tab, want)
		}
	})
}
