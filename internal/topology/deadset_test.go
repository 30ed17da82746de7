package topology

import "testing"

func TestMakeLinkKeyCanonical(t *testing.T) {
	if MakeLinkKey(5, 2) != MakeLinkKey(2, 5) {
		t.Fatal("link key depends on traversal direction")
	}
	if k := MakeLinkKey(7, 3); k.A != 3 || k.B != 7 {
		t.Fatalf("key endpoints not ordered: %+v", k)
	}
}

func TestDeadSetNilIsEmpty(t *testing.T) {
	var d *DeadSet
	if !d.Empty() {
		t.Error("nil set not empty")
	}
	if d.LinkDead(0, 1) || d.RouterDead(0) {
		t.Error("nil set reports deaths")
	}
	if d.Links() != nil || d.Routers() != nil {
		t.Error("nil set lists victims")
	}
}

func TestDeadSetRouterImpliesLinks(t *testing.T) {
	d := NewDeadSet()
	d.AddRouter(5)
	if !d.RouterDead(5) {
		t.Error("router 5 not dead")
	}
	// Every link touching the dead router is dead in both directions,
	// without appearing in the explicit link list.
	if !d.LinkDead(5, 6) || !d.LinkDead(6, 5) || !d.LinkDead(1, 5) {
		t.Error("links incident to a dead router not reported dead")
	}
	if d.LinkDead(1, 2) {
		t.Error("unrelated link reported dead")
	}
	if len(d.Links()) != 0 {
		t.Errorf("implied links listed explicitly: %v", d.Links())
	}
	if got := d.Routers(); len(got) != 1 || got[0] != 5 {
		t.Errorf("Routers() = %v", got)
	}
}

func TestDeadSetLinksSorted(t *testing.T) {
	d := NewDeadSet()
	d.AddLink(9, 8)
	d.AddLink(0, 4)
	d.AddLink(3, 2)
	want := []LinkKey{{0, 4}, {2, 3}, {8, 9}}
	got := d.Links()
	if len(got) != len(want) {
		t.Fatalf("Links() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Links() = %v, want %v", got, want)
		}
	}
	if !d.LinkDead(4, 0) || d.LinkDead(0, 1) {
		t.Error("LinkDead mismatch")
	}
	if d.Empty() {
		t.Error("populated set reports empty")
	}
}
