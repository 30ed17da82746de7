package network

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

type rig struct {
	e   *sim.Engine
	m   *topology.Mesh
	n   *Network
	got []Delivery
}

func newRig(t *testing.T, k int, mod func(*Config)) *rig {
	t.Helper()
	e := sim.NewEngine()
	m := topology.NewSquareMesh(k)
	cfg := DefaultConfig()
	if mod != nil {
		mod(&cfg)
	}
	n := New(e, m, cfg)
	r := &rig{e: e, m: m, n: n}
	n.OnDeliver = func(d Delivery) { r.got = append(r.got, d) }
	return r
}

func (r *rig) at(x, y int) topology.NodeID { return r.m.ID(topology.Coord{X: x, Y: y}) }

// unicastWorm builds a unicast worm routed by base on vn.
func (r *rig) unicastWorm(base routing.Base, vn VN, src, dst topology.NodeID, payload int) *Worm {
	var path []topology.NodeID
	if vn == Reply {
		fwd := base.UnicastPath(r.m, dst, src)
		path = make([]topology.NodeID, len(fwd))
		for i, nd := range fwd {
			path[len(fwd)-1-i] = nd
		}
	} else {
		path = base.UnicastPath(r.m, src, dst)
	}
	dests := make([]bool, len(path))
	dests[len(path)-1] = true
	return &Worm{
		Kind: Unicast, VN: vn, Path: path, Dest: dests,
		PayloadFlits: payload, HeaderFlits: r.n.Cfg.HeaderFlits(1),
	}
}

// multiWorm builds a multidestination worm through waypoints.
func (r *rig) multiWorm(t *testing.T, kind Kind, vn VN, base routing.Base, waypoints []topology.NodeID, payload int, txn uint64) *Worm {
	t.Helper()
	path, err := base.PathThrough(r.m, waypoints)
	if err != nil {
		t.Fatalf("PathThrough: %v", err)
	}
	dests := make([]bool, len(path))
	want := map[topology.NodeID]int{}
	for _, wp := range waypoints[1:] {
		want[wp]++
	}
	for i, nd := range path {
		if i > 0 && want[nd] > 0 {
			dests[i] = true
			want[nd]--
		}
	}
	dests[len(path)-1] = true
	return &Worm{
		Kind: kind, VN: vn, Path: path, Dest: dests,
		PayloadFlits: payload, HeaderFlits: r.n.Cfg.HeaderFlits(len(waypoints) - 1),
		TxnID: txn,
	}
}

func TestUnicastDeliveryLatencyFormula(t *testing.T) {
	r := newRig(t, 8, nil)
	w := r.unicastWorm(routing.ECube, Request, r.at(0, 0), r.at(3, 2), 0)
	r.n.Inject(w)
	r.e.Run()
	if len(r.got) != 1 || !r.got[0].Final {
		t.Fatalf("deliveries = %+v, want one final", r.got)
	}
	// H=5 hops, L=3 flits: inject(2) + 5*(router 4 + flit 2) + router(4) + 3*flit(2) = 42.
	if r.e.Now() != 42 {
		t.Fatalf("delivery at %d, want 42", r.e.Now())
	}
	if r.n.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", r.n.Outstanding())
	}
}

func TestUnicastPayloadExtendsDrain(t *testing.T) {
	r := newRig(t, 8, nil)
	w := r.unicastWorm(routing.ECube, Request, r.at(0, 0), r.at(3, 2), 16)
	r.n.Inject(w)
	r.e.Run()
	// L = 19 flits: 42 + 16*2 = 74.
	if r.e.Now() != 74 {
		t.Fatalf("delivery at %d, want 74", r.e.Now())
	}
}

func TestLocalDegenerateDelivery(t *testing.T) {
	r := newRig(t, 4, nil)
	n := r.at(1, 1)
	w := &Worm{Kind: Unicast, VN: Request, Path: []topology.NodeID{n},
		Dest: []bool{true}, HeaderFlits: 3}
	r.n.Inject(w)
	r.e.Run()
	if len(r.got) != 1 || r.got[0].Node != n {
		t.Fatalf("local delivery missing: %+v", r.got)
	}
}

func TestMulticastForwardAndAbsorb(t *testing.T) {
	r := newRig(t, 8, nil)
	home := r.at(1, 1)
	s1, s2, s3 := r.at(4, 1), r.at(4, 3), r.at(4, 6)
	w := r.multiWorm(t, Multicast, Request, routing.ECube,
		[]topology.NodeID{home, s1, s2, s3}, 2, 1)
	r.n.Inject(w)
	r.e.Run()
	if len(r.got) != 3 {
		t.Fatalf("got %d deliveries, want 3", len(r.got))
	}
	// Copies arrive in path order, final last.
	if r.got[0].Node != s1 || r.got[0].Final {
		t.Fatalf("first delivery %+v, want copy at s1", r.got[0])
	}
	if r.got[1].Node != s2 || r.got[1].Final {
		t.Fatalf("second delivery %+v, want copy at s2", r.got[1])
	}
	if r.got[2].Node != s3 || !r.got[2].Final {
		t.Fatalf("third delivery %+v, want final at s3", r.got[2])
	}
	st := r.n.Stats()
	if st.Copies != 2 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if r.n.Outstanding() != 0 {
		t.Fatal("worm still outstanding")
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	r := newRig(t, 8, nil)
	// Two worms both need link (0,0)->(1,0).
	w1 := r.unicastWorm(routing.ECube, Request, r.at(0, 0), r.at(4, 0), 0)
	w2 := r.unicastWorm(routing.ECube, Request, r.at(0, 0), r.at(4, 0), 0)
	r.n.Inject(w1)
	r.n.Inject(w2)
	r.e.Run()
	if len(r.got) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(r.got))
	}
	if r.n.Outstanding() != 0 {
		t.Fatal("worms outstanding after run")
	}
	// Second worm cannot have been delivered at the same time as the first:
	// it waited for at least the injection channel.
	if w1.injectedAt != w2.injectedAt {
		t.Fatal("test setup: worms must inject at the same cycle")
	}
}

func TestCrossTrafficOnDisjointLinksOverlaps(t *testing.T) {
	r := newRig(t, 8, nil)
	w1 := r.unicastWorm(routing.ECube, Request, r.at(0, 0), r.at(3, 0), 0)
	w2 := r.unicastWorm(routing.ECube, Request, r.at(0, 2), r.at(3, 2), 0)
	r.n.Inject(w1)
	r.n.Inject(w2)
	r.e.Run()
	// Identical geometry on disjoint rows: both arrive at the same cycle.
	if len(r.got) != 2 {
		t.Fatalf("got %d deliveries", len(r.got))
	}
	if r.got[0].Worm.ID == r.got[1].Worm.ID {
		t.Fatal("same worm delivered twice")
	}
}

func TestReserveWormReservesBuffers(t *testing.T) {
	r := newRig(t, 8, nil)
	home := r.at(0, 2)
	s1, s2 := r.at(3, 2), r.at(3, 5)
	w := r.multiWorm(t, Reserve, Request, routing.ECube,
		[]topology.NodeID{home, s1, s2}, 0, 7)
	r.n.Inject(w)
	r.e.Run()
	if len(r.got) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(r.got))
	}
	// s1 holds a reserved (unposted) entry; posting must succeed.
	r.n.PostAck(s1, 7)
	if got := r.n.PeakIAckUse(s1); got != 1 {
		t.Fatalf("peak i-ack use at s1 = %d, want 1", got)
	}
}

func TestGatherCollectsPostedAcks(t *testing.T) {
	r := newRig(t, 8, nil)
	home := r.at(0, 2)
	s1, s2 := r.at(3, 2), r.at(3, 5)
	const txn = 9
	reserve := r.multiWorm(t, Reserve, Request, routing.ECube,
		[]topology.NodeID{home, s1, s2}, 0, txn)
	r.n.Inject(reserve)
	r.e.Run()
	r.got = nil

	// s1 posts its ack; s2 (final) launches the gather back through s1.
	r.n.PostAck(s1, txn)
	gpath, err := routing.ECube.PathThrough(r.m, []topology.NodeID{home, s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	// Reverse the reserve path for the reply network.
	rev := make([]topology.NodeID, len(gpath))
	for i, nd := range gpath {
		rev[len(gpath)-1-i] = nd
	}
	dests := make([]bool, len(rev))
	for i, nd := range rev {
		if i > 0 && (nd == s1 || nd == home) {
			dests[i] = true
		}
	}
	g := &Worm{Kind: Gather, VN: Reply, Path: rev, Dest: dests,
		HeaderFlits: r.n.Cfg.HeaderFlits(2), TxnID: txn}
	r.n.Inject(g)
	r.e.Run()
	if len(r.got) != 1 || r.got[0].Node != home || !r.got[0].Final {
		t.Fatalf("gather deliveries = %+v, want final at home", r.got)
	}
	if r.n.Stats().GatherWait != 0 {
		t.Fatal("gather should not have waited: ack was posted")
	}
	if r.n.Outstanding() != 0 {
		t.Fatal("gather still outstanding")
	}
}

// TestDiagnoseNamesIAckBufferWait queues a reserve worm on a full i-ack
// buffer file: with one entry per router, the first transaction's reserve
// worm holds s1's entry, so the second one's, absorbed at s1, must wait for
// it. Diagnose must say so rather than call the stalled worm moving.
func TestDiagnoseNamesIAckBufferWait(t *testing.T) {
	r := newRig(t, 8, func(c *Config) { c.IAckBuffers = 1 })
	s1 := r.at(3, 2)
	r.n.Inject(r.multiWorm(t, Reserve, Request, routing.ECube,
		[]topology.NodeID{r.at(0, 2), s1, r.at(3, 5)}, 0, 1))
	r.e.Run()
	r.n.Inject(r.multiWorm(t, Reserve, Request, routing.ECube,
		[]topology.NodeID{r.at(1, 2), s1, r.at(3, 6)}, 0, 2))
	r.e.Run()
	diag := r.n.Diagnose()
	if want := "waiting for an i-ack buffer entry at (3,2)"; r.n.Outstanding() != 1 || !strings.Contains(diag, want) {
		t.Fatalf("Diagnose with %d worm(s) outstanding does not name %q:\n%s", r.n.Outstanding(), want, diag)
	}
}

// launchGatherAfterReserve runs a full reserve+gather round where the ack at
// s1 posts only after `delay` cycles, returning the rig for inspection.
func launchGatherAfterReserve(t *testing.T, vct bool, delay sim.Time) (*rig, topology.NodeID) {
	t.Helper()
	r := newRig(t, 8, func(c *Config) { c.VCTDeferred = vct })
	home := r.at(0, 2)
	s1, s2 := r.at(3, 2), r.at(3, 5)
	const txn = 11
	reserve := r.multiWorm(t, Reserve, Request, routing.ECube,
		[]topology.NodeID{home, s1, s2}, 0, txn)
	r.n.Inject(reserve)
	r.e.Run()
	r.got = nil

	// Gather first, ack later: the gather must wait at s1.
	gpath, _ := routing.ECube.PathThrough(r.m, []topology.NodeID{home, s1, s2})
	rev := make([]topology.NodeID, len(gpath))
	for i, nd := range gpath {
		rev[len(gpath)-1-i] = nd
	}
	dests := make([]bool, len(rev))
	for i, nd := range rev {
		if i > 0 && (nd == s1 || nd == home) {
			dests[i] = true
		}
	}
	g := &Worm{Kind: Gather, VN: Reply, Path: rev, Dest: dests,
		HeaderFlits: r.n.Cfg.HeaderFlits(2), TxnID: txn}
	r.n.Inject(g)
	r.e.AfterCall(delay, sim.CallFunc, func() { r.n.PostAck(s1, txn) }, 0)
	r.e.Run()
	return r, home
}

func TestGatherBlocksUntilAckPosted(t *testing.T) {
	r, home := launchGatherAfterReserve(t, false, 500)
	if len(r.got) != 1 || r.got[0].Node != home {
		t.Fatalf("deliveries = %+v", r.got)
	}
	st := r.n.Stats()
	if st.GatherWait != 1 {
		t.Fatalf("GatherWait = %d, want 1", st.GatherWait)
	}
	if st.VCTParks != 0 {
		t.Fatal("blocking mode must not park")
	}
	// Delivery must be after the 500-cycle ack delay.
	if r.e.Now() < 500 {
		t.Fatalf("gather finished at %d, before ack posted", r.e.Now())
	}
	if r.n.Outstanding() != 0 {
		t.Fatal("outstanding after run")
	}
}

func TestGatherVCTDeferredParksAndResumes(t *testing.T) {
	r, home := launchGatherAfterReserve(t, true, 500)
	if len(r.got) != 1 || r.got[0].Node != home {
		t.Fatalf("deliveries = %+v", r.got)
	}
	st := r.n.Stats()
	if st.VCTParks != 1 {
		t.Fatalf("VCTParks = %d, want 1", st.VCTParks)
	}
	if r.n.Outstanding() != 0 {
		t.Fatal("outstanding after run")
	}
}

func TestVCTParkReleasesChannelsForOtherTraffic(t *testing.T) {
	// While a blocking gather stalls, it holds its path; a VCT-parked one
	// frees it. Verify a cross worm needing a link on the gather's path is
	// delivered before the ack posts in VCT mode only.
	for _, vct := range []bool{false, true} {
		r := newRig(t, 8, func(c *Config) { c.VCTDeferred = vct })
		home := r.at(0, 2)
		s1, s2 := r.at(3, 2), r.at(3, 5)
		const txn = 13
		reserve := r.multiWorm(t, Reserve, Request, routing.ECube,
			[]topology.NodeID{home, s1, s2}, 0, txn)
		r.n.Inject(reserve)
		r.e.Run()
		r.got = nil

		gpath, _ := routing.ECube.PathThrough(r.m, []topology.NodeID{home, s1, s2})
		rev := make([]topology.NodeID, len(gpath))
		for i, nd := range gpath {
			rev[len(gpath)-1-i] = nd
		}
		dests := make([]bool, len(rev))
		for i, nd := range rev {
			if i > 0 && (nd == s1 || nd == home) {
				dests[i] = true
			}
		}
		g := &Worm{Kind: Gather, VN: Reply, Path: rev, Dest: dests,
			HeaderFlits: r.n.Cfg.HeaderFlits(2), TxnID: txn}
		r.n.Inject(g)
		r.e.RunUntil(200) // gather is now stalled at s1 (ack unposted)

		// Cross worm on the reply VN using the column link (3,5)->(3,4)
		// that the stalled gather holds.
		cross := r.unicastWorm(routing.ECube, Reply, r.at(3, 6), r.at(3, 1), 0)
		r.n.Inject(cross)
		r.e.RunUntil(5000)
		crossDone := false
		for _, d := range r.got {
			if d.Worm == cross && d.Final {
				crossDone = true
			}
		}
		if vct && !crossDone {
			t.Fatal("VCT mode: cross traffic should pass the parked gather's path")
		}
		if !vct && crossDone {
			t.Fatal("blocking mode: cross traffic should be stuck behind the stalled gather")
		}
		r.n.PostAck(s1, txn)
		r.e.Run()
		if r.n.Outstanding() != 0 {
			t.Fatalf("vct=%v: outstanding=%d after ack", vct, r.n.Outstanding())
		}
	}
}

func TestConsumptionChannelExhaustionBlocks(t *testing.T) {
	// With one consumption channel and two simultaneous worms to the same
	// node, the second drain waits for the first to finish.
	r := newRig(t, 8, func(c *Config) { c.ConsumptionChannels = 1 })
	dst := r.at(4, 0)
	w1 := r.unicastWorm(routing.ECube, Request, r.at(0, 0), dst, 32)
	w2 := r.unicastWorm(routing.ECube, Request, r.at(4, 4), dst, 32)
	r.n.Inject(w1)
	r.n.Inject(w2)
	r.e.Run()
	if len(r.got) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(r.got))
	}
	if r.got[0].Worm == r.got[1].Worm {
		t.Fatal("same worm twice")
	}
	if r.n.PeakConsumptionUse(dst) != 1 {
		t.Fatalf("peak consumption = %d, want 1", r.n.PeakConsumptionUse(dst))
	}
}

func TestChannelsFreedAfterCompletion(t *testing.T) {
	r := newRig(t, 8, nil)
	for i := 0; i < 5; i++ {
		w := r.unicastWorm(routing.ECube, Request, r.at(0, 0), r.at(5, 5), 8)
		r.n.Inject(w)
		r.e.Run()
	}
	if r.n.Outstanding() != 0 {
		t.Fatal("outstanding after sequential worms")
	}
	if len(r.got) != 5 {
		t.Fatalf("deliveries = %d, want 5", len(r.got))
	}
	// All channels must be free: inject once more and expect the same
	// end-to-end latency as an uncontended worm.
	start := r.e.Now()
	w := r.unicastWorm(routing.ECube, Request, r.at(0, 0), r.at(5, 5), 8)
	r.n.Inject(w)
	r.e.Run()
	elapsed := r.e.Now() - start
	// H=10, L=11: 2 + 10*6 + 4 + 22 = 88.
	if elapsed != 88 {
		t.Fatalf("uncontended latency = %d, want 88", elapsed)
	}
}

func TestFlitHopsAccounting(t *testing.T) {
	r := newRig(t, 8, nil)
	w := r.unicastWorm(routing.ECube, Request, r.at(0, 0), r.at(3, 0), 5)
	r.n.Inject(w)
	r.e.Run()
	want := uint64(w.Flits()) * uint64(w.Hops())
	if got := r.n.Stats().FlitHops; got != want {
		t.Fatalf("FlitHops = %d, want %d", got, want)
	}
}

func TestHeaderFlitsEncoding(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct{ dests, want int }{
		{1, 3}, {2, 4}, {3, 4}, {4, 5}, {5, 5}, {9, 7},
	}
	for _, tc := range cases {
		if got := cfg.HeaderFlits(tc.dests); got != tc.want {
			t.Errorf("HeaderFlits(%d) = %d, want %d", tc.dests, got, tc.want)
		}
	}
}

func TestWormValidation(t *testing.T) {
	r := newRig(t, 4, nil)
	bad := func(name string, w *Worm) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Inject did not panic", name)
			}
		}()
		r.n.Inject(w)
	}
	a, b := r.at(0, 0), r.at(1, 0)
	bad("empty path", &Worm{Path: nil, HeaderFlits: 3})
	bad("dest mismatch", &Worm{Path: []topology.NodeID{a, b}, Dest: []bool{true}, HeaderFlits: 3})
	bad("final not dest", &Worm{Path: []topology.NodeID{a, b}, Dest: []bool{false, false}, HeaderFlits: 3})
	bad("source is dest", &Worm{Path: []topology.NodeID{a, b}, Dest: []bool{true, true}, HeaderFlits: 3})
	bad("no header", &Worm{Path: []topology.NodeID{a, b}, Dest: []bool{false, true}})
	bad("not contiguous", &Worm{Path: []topology.NodeID{a, r.at(2, 0)}, Dest: []bool{false, true}, HeaderFlits: 3})
	bad("unicast with intermediate dest", &Worm{Kind: Unicast,
		Path: []topology.NodeID{a, b, r.at(2, 0)}, Dest: []bool{false, true, true}, HeaderFlits: 3})
}

// TestInjectRejectsNonContiguousPath pins the hop check Inject makes as it
// resolves each hop's link set: a path step that is not a link panics.
func TestInjectRejectsNonContiguousPath(t *testing.T) {
	r := newRig(t, 4, nil)
	bad := func(name string, path []topology.NodeID, wantMsg bool) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if r == nil {
				t.Errorf("%s: Inject did not panic", name)
				return
			}
			if msg := fmt.Sprint(r); wantMsg && !strings.Contains(msg, "not hop-contiguous") {
				t.Errorf("%s: panic %q does not say the path is not hop-contiguous", name, msg)
			}
		}()
		dests := make([]bool, len(path))
		dests[len(path)-1] = true
		r.n.Inject(&Worm{Path: path, Dest: dests, HeaderFlits: 3})
	}
	bad("+1 from x=3 into the next row", []topology.NodeID{r.at(2, 0), r.at(3, 0), r.at(0, 1)}, true)
	bad("jump of 2", []topology.NodeID{r.at(0, 0), r.at(2, 0)}, true)
	bad("node beyond the mesh", []topology.NodeID{r.at(3, 3), topology.NodeID(r.m.Nodes())}, false)
	bad("repeated node", []topology.NodeID{r.at(1, 1), r.at(1, 1)}, false)
}

func TestUtilizationReporting(t *testing.T) {
	r := newRig(t, 4, nil)
	// maxLink is the busiest link's busy fraction; it fails the test if
	// any link reports one above 1.
	maxLink := func() float64 {
		var busiest float64
		for vn := VN(0); vn < numVNs; vn++ {
			for n := 0; n < r.m.Nodes(); n++ {
				for p := topology.East; p <= topology.South; p++ {
					u := r.n.LinkUtilization(topology.NodeID(n), p, vn)
					if u > 1 {
						t.Fatalf("link %d port %v vn %v: utilization %v exceeds 1", n, p, vn, u)
					}
					busiest = max(busiest, u)
				}
			}
		}
		return busiest
	}
	if r.n.AvgLinkUtilization() != 0 || maxLink() != 0 {
		t.Fatal("utilization nonzero before traffic")
	}
	w := r.unicastWorm(routing.ECube, Request, r.at(0, 0), r.at(3, 3), 32)
	r.n.Inject(w)
	r.e.Run()
	if r.n.AvgLinkUtilization() <= 0 {
		t.Fatal("average utilization zero after traffic")
	}
	if maxLink() < r.n.AvgLinkUtilization() {
		t.Fatal("max < avg utilization")
	}
}

func TestManyRandomWormsDrainCleanly(t *testing.T) {
	// Soak: 500 random unicast worms on both VNs must all deliver with no
	// deadlock and no resource leak.
	r := newRig(t, 8, nil)
	rng := sim.NewRNG(123)
	const count = 500
	for i := 0; i < count; i++ {
		src := topology.NodeID(rng.Intn(r.m.Nodes()))
		dst := topology.NodeID(rng.Intn(r.m.Nodes()))
		if src == dst {
			dst = topology.NodeID((int(dst) + 1) % r.m.Nodes())
		}
		vn := VN(rng.Intn(2))
		w := r.unicastWorm(routing.ECube, vn, src, dst, rng.Intn(20))
		at := sim.Time(rng.Intn(2000))
		r.e.AtCall(at, sim.CallFunc, func() { r.n.Inject(w) }, 0)
	}
	r.e.Run()
	if got := len(r.got); got != count {
		t.Fatalf("deliveries = %d, want %d", got, count)
	}
	if r.n.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after soak", r.n.Outstanding())
	}
}

func TestKindAndVNStrings(t *testing.T) {
	if Unicast.String() != "unicast" || Gather.String() != "gather" {
		t.Error("kind names wrong")
	}
	if Request.String() != "request" || Reply.String() != "reply" {
		t.Error("vn names wrong")
	}
}

func TestVirtualChannelsBypassBlockedWorm(t *testing.T) {
	// A gather stalled waiting for an ack holds one lane of each link on
	// its path. With a single virtual channel, cross traffic on those
	// links is stuck behind it; with two lanes it passes.
	for _, vcs := range []int{1, 2} {
		r := newRig(t, 8, func(c *Config) { c.VirtualChannels = vcs })
		home := r.at(0, 2)
		s1, s2 := r.at(3, 2), r.at(3, 5)
		const txn = 21
		reserve := r.multiWorm(t, Reserve, Request, routing.ECube,
			[]topology.NodeID{home, s1, s2}, 0, txn)
		r.n.Inject(reserve)
		r.e.Run()
		r.got = nil

		gpath, _ := routing.ECube.PathThrough(r.m, []topology.NodeID{home, s1, s2})
		rev := make([]topology.NodeID, len(gpath))
		for i, nd := range gpath {
			rev[len(gpath)-1-i] = nd
		}
		dests := make([]bool, len(rev))
		for i, nd := range rev {
			if i > 0 && (nd == s1 || nd == home) {
				dests[i] = true
			}
		}
		g := &Worm{Kind: Gather, VN: Reply, Path: rev, Dest: dests,
			HeaderFlits: r.n.Cfg.HeaderFlits(2), TxnID: txn}
		r.n.Inject(g)
		r.e.RunUntil(200) // gather now stalls at s1

		cross := r.unicastWorm(routing.ECube, Reply, r.at(3, 6), r.at(3, 1), 0)
		r.n.Inject(cross)
		r.e.RunUntil(5000)
		crossDone := false
		for _, d := range r.got {
			if d.Worm == cross && d.Final {
				crossDone = true
			}
		}
		if vcs == 1 && crossDone {
			t.Fatal("1 VC: cross traffic should be blocked behind the stalled gather")
		}
		if vcs == 2 && !crossDone {
			t.Fatal("2 VCs: cross traffic should bypass the stalled gather")
		}
		r.n.PostAck(s1, txn)
		r.e.Run()
		if r.n.Outstanding() != 0 {
			t.Fatalf("vcs=%d: outstanding after ack", vcs)
		}
	}
}

func TestZeroVirtualChannelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("VirtualChannels=0 did not panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.VirtualChannels = 0
	New(sim.NewEngine(), topology.NewSquareMesh(4), cfg)
}

func TestDiagnoseQuiesced(t *testing.T) {
	r := newRig(t, 4, nil)
	if got := r.n.Diagnose(); got != "network: quiesced, no worms in flight" {
		t.Fatalf("Diagnose = %q", got)
	}
}

func TestDiagnoseReportsStalledGather(t *testing.T) {
	// Reuse the blocking-gather scenario: the gather stalls at s1 waiting
	// for an unposted i-ack; Diagnose must name it.
	r := newRig(t, 8, nil)
	home := r.at(0, 2)
	s1, s2 := r.at(3, 2), r.at(3, 5)
	const txn = 33
	reserve := r.multiWorm(t, Reserve, Request, routing.ECube,
		[]topology.NodeID{home, s1, s2}, 0, txn)
	r.n.Inject(reserve)
	r.e.Run()

	gpath, _ := routing.ECube.PathThrough(r.m, []topology.NodeID{home, s1, s2})
	rev := make([]topology.NodeID, len(gpath))
	for i, nd := range gpath {
		rev[len(gpath)-1-i] = nd
	}
	dests := make([]bool, len(rev))
	for i, nd := range rev {
		if i > 0 && (nd == s1 || nd == home) {
			dests[i] = true
		}
	}
	g := &Worm{Kind: Gather, VN: Reply, Path: rev, Dest: dests,
		HeaderFlits: r.n.Cfg.HeaderFlits(2), TxnID: txn}
	r.n.Inject(g)
	r.e.Run() // drains with the gather stalled

	if r.n.Outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1 stalled gather", r.n.Outstanding())
	}
	diag := r.n.Diagnose()
	for _, want := range []string{"1 worm(s) in flight", "gather stalled", "txn 33"} {
		if !strings.Contains(diag, want) {
			t.Fatalf("Diagnose missing %q:\n%s", want, diag)
		}
	}
	r.n.PostAck(s1, txn)
	r.e.Run()
	if r.n.Outstanding() != 0 {
		t.Fatal("gather stuck after ack")
	}
	if !strings.Contains(r.n.Diagnose(), "quiesced") {
		t.Fatal("Diagnose not quiesced after drain")
	}
}

func TestMultidestSoakConservation(t *testing.T) {
	// Random mix of unicast and multicast worms: every worm must produce
	// exactly one delivery per destination (conservation), and all
	// resources must drain.
	r := newRig(t, 8, nil)
	rng := sim.NewRNG(777)
	type expect struct{ dests int }
	var worms []*Worm
	wantDeliveries := 0
	for i := 0; i < 200; i++ {
		home := topology.NodeID(rng.Intn(r.m.Nodes()))
		d := 1 + rng.Intn(4)
		seen := map[topology.NodeID]bool{home: true}
		var members []topology.NodeID
		for len(members) < d {
			n := topology.NodeID(rng.Intn(r.m.Nodes()))
			if !seen[n] {
				seen[n] = true
				members = append(members, n)
			}
		}
		var w *Worm
		if d == 1 {
			w = r.unicastWorm(routing.ECube, VN(rng.Intn(2)), home, members[0], rng.Intn(8))
		} else {
			// Column-style grouped members so a conformed path exists.
			hc := r.m.Coord(home)
			col := (hc.X + 1 + rng.Intn(6)) % 8
			up := hc.Y < 4
			members = members[:0]
			for len(members) < d {
				y := hc.Y + 1 + len(members)
				if !up {
					y = hc.Y - 1 - len(members)
				}
				if y < 0 || y > 7 {
					break
				}
				members = append(members, r.at(col, y))
			}
			if len(members) == 0 {
				continue
			}
			w = r.multiWorm(t, Multicast, Request, routing.ECube,
				append([]topology.NodeID{home}, members...), rng.Intn(8), uint64(1000+i))
		}
		wantDeliveries += len(w.Destinations())
		worms = append(worms, w)
		at := sim.Time(rng.Intn(3000))
		r.e.AtCall(at, sim.CallFunc, func() { r.n.Inject(w) }, 0)
	}
	r.e.Run()
	if r.n.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after soak:\n%s", r.n.Outstanding(), r.n.Diagnose())
	}
	if len(r.got) != wantDeliveries {
		t.Fatalf("deliveries = %d, want %d", len(r.got), wantDeliveries)
	}
	// Per-worm conservation: one delivery per destination, exactly one
	// final per worm.
	perWorm := map[*Worm][]Delivery{}
	for _, d := range r.got {
		perWorm[d.Worm] = append(perWorm[d.Worm], d)
	}
	for _, w := range worms {
		ds := perWorm[w]
		if len(ds) != len(w.Destinations()) {
			t.Fatalf("worm %d: %d deliveries for %d destinations", w.ID, len(ds), len(w.Destinations()))
		}
		finals := 0
		for _, d := range ds {
			if d.Final {
				finals++
			}
		}
		if finals != 1 {
			t.Fatalf("worm %d: %d final deliveries", w.ID, finals)
		}
	}
}

// TestDiagnoseGolden pins the exact liveness-watchdog dump formats: the
// quiesced line, a freshly injected worm waiting on its injection channel,
// and a stalled gather naming its missing i-ack. The dump is what a wedged
// run hands the operator (and what the chaos soaks print on failure), so its
// shape is a contract, not a detail.
func TestDiagnoseGolden(t *testing.T) {
	r := newRig(t, 8, nil)
	if got, want := r.n.Diagnose(), "network: quiesced, no worms in flight"; got != want {
		t.Fatalf("quiesced Diagnose = %q, want %q", got, want)
	}

	// A just-injected worm has not won its injection channel yet.
	w := r.unicastWorm(routing.ECube, Request, r.at(0, 0), r.at(3, 2), 0)
	r.n.Inject(w)
	if got, want := r.n.Diagnose(), "network: 1 worm(s) in flight\n"+
		"  worm 0 (unicast, request vn) at hop 0/5 of (0,0)->(3,2): waiting for its injection channel\n"; got != want {
		t.Fatalf("queued Diagnose = %q, want %q", got, want)
	}
	r.e.Run()

	// The blocking-gather scenario: the gather stalls at its first member
	// waiting for an i-ack that was never posted.
	home := r.at(0, 2)
	s1, s2 := r.at(3, 2), r.at(3, 5)
	const txn = 33
	r.n.Inject(r.multiWorm(t, Reserve, Request, routing.ECube,
		[]topology.NodeID{home, s1, s2}, 0, txn))
	r.e.Run()
	gpath, _ := routing.ECube.PathThrough(r.m, []topology.NodeID{home, s1, s2})
	rev := make([]topology.NodeID, len(gpath))
	for i, nd := range gpath {
		rev[len(gpath)-1-i] = nd
	}
	dests := make([]bool, len(rev))
	for i, nd := range rev {
		if i > 0 && (nd == s1 || nd == home) {
			dests[i] = true
		}
	}
	r.n.Inject(&Worm{Kind: Gather, VN: Reply, Path: rev, Dest: dests,
		HeaderFlits: r.n.Cfg.HeaderFlits(2), TxnID: txn})
	r.e.Run()
	if got, want := r.n.Diagnose(), "network: 1 worm(s) in flight\n"+
		"  worm 2 (gather, reply vn) at hop 3/6 of (3,5)->(0,2): gather stalled at (3,2): i-ack for txn 33 not posted\n"; got != want {
		t.Fatalf("stalled-gather Diagnose = %q, want %q", got, want)
	}
	r.n.PostAck(s1, txn)
	r.e.Run()
}
