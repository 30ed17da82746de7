package network

import (
	"reflect"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// injectPooled launches a pooled copy of the literal worm lit (its path,
// flags, kind, network, transaction and expendability) and returns it.
func (r *rig) injectPooled(lit *Worm) *Worm {
	w := r.n.NewWorm()
	w.Kind, w.VN, w.TxnID, w.Expendable = lit.Kind, lit.VN, lit.TxnID, lit.Expendable
	w.Path = append(w.TakePathBuf(), lit.Path...)
	dests := w.TakeDestBuf(len(lit.Dest))
	copy(dests, lit.Dest)
	w.Dest = dests
	w.HeaderFlits, w.PayloadFlits = lit.HeaderFlits, lit.PayloadFlits
	r.n.Inject(w)
	return w
}

// expendable marks a literal worm as an expendable member of txn.
func expendable(w *Worm, txn uint64) *Worm {
	w.TxnID, w.Expendable = txn, true
	return w
}

var diagWormLine = regexp.MustCompile(`(?m)^  worm (\d+) `)

// diagnosedIDs returns the worm IDs Diagnose lists, in its order.
func diagnosedIDs(t *testing.T, n *Network) []uint64 {
	t.Helper()
	var ids []uint64
	for _, m := range diagWormLine.FindAllStringSubmatch(n.Diagnose(), -1) {
		id, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

// TestRegistryScrambledRetirement retires pooled worms out of order (two
// kills, then two completions), which leaves the swap-with-last registry
// unsorted. Diagnose must still list the survivors in ascending ID, and the
// four recycled worms must never count, report or die as live again.
func TestRegistryScrambledRetirement(t *testing.T) {
	r := newRig(t, 8, nil)
	long := func(src, dst topology.NodeID) *Worm {
		return r.injectPooled(r.unicastWorm(routing.ECube, Request, src, dst, 0))
	}
	w0 := long(r.at(0, 0), r.at(7, 7))
	w1 := r.injectPooled(expendable(r.unicastWorm(routing.ECube, Request, r.at(1, 1), r.at(2, 1), 0), 5))
	w2 := long(r.at(0, 2), r.at(7, 6))
	w3 := r.injectPooled(r.unicastWorm(routing.ECube, Request, r.at(3, 3), r.at(4, 3), 0))
	w4 := long(r.at(0, 4), r.at(7, 4))
	w5 := long(r.at(0, 5), r.at(7, 0))

	if !r.n.killWorm(w4) || !r.n.killWorm(w0) {
		t.Fatal("killWorm refused a live worm")
	}
	// The one-hop worms complete at cycle 18; the long ones need 70+.
	r.e.RunUntil(40)
	if w1.slot != 0 || w3.slot != 0 || w2.slot == 0 || w5.slot == 0 {
		t.Fatal("the one-hop worms should be done and the long ones in flight")
	}
	if got := []*Worm{r.n.inFlight[0], r.n.inFlight[1]}; got[0] != w5 || got[1] != w2 {
		t.Fatalf("registry order = worms %d, %d; want the swaps to leave 5, 2", got[0].ID, got[1].ID)
	}
	if got, want := diagnosedIDs(t, r.n), []uint64{2, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Diagnose lists worms %v, want %v:\n%s", got, want, r.n.Diagnose())
	}

	recycled := []*Worm{w0, w1, w3, w4}
	if len(r.n.freeWorms) != len(recycled) {
		t.Fatalf("%d worms in the free pool, want %d", len(r.n.freeWorms), len(recycled))
	}
	for _, w := range recycled {
		if w.slot != 0 || w.ID != 0 {
			t.Fatalf("recycled worm keeps slot %d, ID %d", w.slot, w.ID)
		}
		if r.n.killWorm(w) {
			t.Fatal("killWorm killed a recycled worm")
		}
	}
	if got := r.n.AbortTxn(5); got != 0 {
		t.Fatalf("AbortTxn(5) killed %d worms; its only worm completed and recycled", got)
	}
	if st := r.n.Stats(); st.Aborted != 0 || r.n.Outstanding() != 2 {
		t.Fatalf("a recycled worm was treated as live: aborted %d, outstanding %d",
			st.Aborted, r.n.Outstanding())
	}

	r.e.Run()
	if r.n.Outstanding() != 0 || r.n.Stats().Completed != 4 {
		t.Fatalf("outstanding %d, completed %d after drain; want 0, 4",
			r.n.Outstanding(), r.n.Stats().Completed)
	}
}

// TestAbortTxnKillsInIDOrder aborts a transaction with three expendable
// worms in flight: a gather A stalled on an unposted i-ack, a unicast B
// queued for a link A holds, and a just-injected unicast C, with the
// registry scrambled to C, A, B. Killing A hands B the lane inside the
// abort; AbortTxn must still kill A, B and C in ID order.
func TestAbortTxnKillsInIDOrder(t *testing.T) {
	r := newRig(t, 8, nil)
	rec := trace.NewRecorder(4096)
	r.n.Rec = rec
	const txn = 7

	// Reserve the i-ack entries, then send the gather back to stall at s1.
	home, s1, s2 := r.at(0, 2), r.at(3, 2), r.at(3, 5)
	r.n.Inject(r.multiWorm(t, Reserve, Request, routing.ECube, []topology.NodeID{home, s1, s2}, 0, txn))
	r.e.Run()
	gpath, _ := routing.ECube.PathThrough(r.m, []topology.NodeID{home, s1, s2})
	rev := make([]topology.NodeID, len(gpath))
	for i, nd := range gpath {
		rev[len(gpath)-1-i] = nd
	}
	dests := make([]bool, len(rev))
	for i, nd := range rev {
		dests[i] = i > 0 && (nd == s1 || nd == home)
	}
	// X, a long worm elsewhere, sits ahead of the victims in the registry.
	t0 := r.e.Now()
	x := r.injectPooled(r.unicastWorm(routing.ECube, Request, r.at(0, 7), r.at(7, 0), 0))
	a := r.injectPooled(expendable(&Worm{Kind: Gather, VN: Reply, Path: rev, Dest: dests,
		HeaderFlits: r.n.Cfg.HeaderFlits(2)}, txn))
	// The later steps run as events: the engine's clock must not be moved
	// while worms are in flight.
	var b *Worm
	r.e.AtCall(t0+40, sim.CallFunc, func() {
		if a.state != wormBlocked || a.hopIdx != 3 {
			t.Fatalf("gather at hop %d in state %d, want stalled at s1", a.hopIdx, a.state)
		}
		// B wants the reply-network link (3,4)->(3,3) that A holds.
		b = r.injectPooled(expendable(r.unicastWorm(routing.ECube, Reply, r.at(3, 4), r.at(3, 3), 0), txn))
	}, 0)
	aborted := false
	r.e.AtCall(t0+50, sim.CallFunc, func() {
		if b.state != wormBlocked {
			t.Fatalf("B in state %d, want queued for A's link", b.state)
		}
		c := r.injectPooled(expendable(r.unicastWorm(routing.ECube, Request, r.at(6, 6), r.at(5, 6), 0), txn))
		if !r.n.killWorm(x) {
			t.Fatal("X should still be in flight")
		}
		if r.n.inFlight[0] != c || r.n.inFlight[1] != a || r.n.inFlight[2] != b {
			t.Fatal("registry not scrambled to C, A, B")
		}
		ida, idb, idc := a.ID, b.ID, c.ID
		rec.Reset()
		if got := r.n.AbortTxn(txn); got != 3 {
			t.Fatalf("AbortTxn killed %d worms, want 3 (A, B and C)", got)
		}
		// The trace is A's kill, B's grant of A's lane, then B's and C's
		// kills.
		var kills, grants []uint64
		for _, ev := range rec.Events() {
			switch ev.Kind {
			case trace.KindWormKill:
				kills = append(kills, ev.Worm)
			case trace.KindWormGrant:
				if len(kills) == 1 {
					grants = append(grants, ev.Worm)
				}
			}
		}
		if want := []uint64{ida, idb, idc}; !reflect.DeepEqual(kills, want) {
			t.Fatalf("kill events for worms %v, want %v", kills, want)
		}
		if want := []uint64{idb}; !reflect.DeepEqual(grants, want) {
			t.Fatalf("grants between the first two kills for worms %v, want B's %v", grants, want)
		}
		if st := r.n.Stats(); st.Aborted != 3 {
			t.Fatalf("aborted %d, want 3", st.Aborted)
		}
		if r.n.killWorm(b) {
			t.Fatal("B should be dead")
		}
		if r.n.Outstanding() != 0 {
			t.Fatalf("outstanding %d after the abort:\n%s", r.n.Outstanding(), r.n.Diagnose())
		}
		aborted = true
	}, 0)
	r.e.Run()
	if !aborted {
		t.Fatal("the abort step never ran")
	}
	if r.n.Outstanding() != 0 || r.n.Stats().Completed != 1 {
		t.Fatalf("outstanding %d, completed %d after drain; want 0 and only the reserve worm",
			r.n.Outstanding(), r.n.Stats().Completed)
	}
}
