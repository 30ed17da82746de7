package coherence

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/directory"
	"repro/internal/grouping"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestOpPoolAllocsPerHit pins the pendingOp free list: once the pool and the
// engine slab are warm, a read hit's full issue-hit-complete cycle (newOp
// through finishHit/freeOp) allocates nothing. This is the allocation
// ratchet for the processor-side hot path — a regression here means an op
// stopped being recycled or a closure crept back into the issue path.
func TestOpPoolAllocsPerHit(t *testing.T) {
	m := NewMachine(DefaultParams(4, grouping.UIUA))
	n := topology.NodeID(0)
	b := directory.BlockID(1)
	done := 0
	onDone := func() { done++ }
	readOnce := func() {
		m.Read(n, b, onDone)
		m.Engine.Run()
	}
	// The first read misses and fills; every later read hits. Warm until
	// simulated time has swept the engine's 1024-bucket calendar several
	// times over, so every bucket slice, the op pool, and the latency
	// sample have grown to steady-state capacity.
	for m.Engine.Now() < 1<<13 {
		readOnce()
	}
	warm := done
	if avg := testing.AllocsPerRun(200, readOnce); avg != 0 {
		t.Fatalf("allocs per pooled read hit = %v, want 0", avg)
	}
	if done <= warm {
		t.Fatal("no operations completed during the measured runs")
	}
}

// TestMsgPoolAllocsPerMiss pins the msg free list: once warm, a full read
// miss — readReq worm to the home, directory lookup, readReply worm back,
// fill and completion — recycles its two pooled messages, its pendingOp and
// both worms, allocating nothing. The line is invalidated locally between
// rounds so every measured read takes the whole protocol path.
func TestMsgPoolAllocsPerMiss(t *testing.T) {
	m := NewMachine(DefaultParams(4, grouping.UIUA))
	n := topology.NodeID(0)
	b := directory.BlockID(1) // home is not node 0: the miss crosses the mesh
	if m.Home(b) == n {
		t.Fatal("test wants a remote home")
	}
	done := 0
	onDone := func() { done++ }
	missOnce := func() {
		m.Read(n, b, onDone)
		m.Engine.Run()
		m.Cache(n).Invalidate(b)
	}
	// Warm until simulated time has swept the engine's bucket calendar
	// several times over (see TestOpPoolAllocsPerHit).
	for m.Engine.Now() < 1<<14 {
		missOnce()
	}
	warm := done
	if avg := testing.AllocsPerRun(200, missOnce); avg != 0 {
		t.Fatalf("allocs per pooled read miss = %v, want 0", avg)
	}
	if done <= warm {
		t.Fatal("no operations completed during the measured runs")
	}
}

// TestNewMachineAllocs pins the flat construction of a machine: the fabric's
// channels, consumption pools and i-ack files, and the per-node
// caches, directories and controllers, each come from one allocation per
// kind. Building a network therefore costs the same allocations at every
// mesh size, and a machine costs nothing per node; a per-node or per-link
// allocation added anywhere in construction shows up as a count that grows
// with k.
func TestNewMachineAllocs(t *testing.T) {
	// allocs is the fewest allocations f made in three measurements: a
	// large construction can start a GC cycle, whose own allocations would
	// otherwise land in the count now and then.
	allocs := func(f func()) float64 {
		best := testing.AllocsPerRun(5, f)
		for range 2 {
			best = min(best, testing.AllocsPerRun(5, f))
		}
		return best
	}
	ks := []int{8, 16, 32}
	nets := make([]float64, len(ks))
	machines := make([]float64, len(ks))
	for i, k := range ks {
		mesh := topology.NewSquareMesh(k)
		engine := sim.NewEngine()
		nets[i] = allocs(func() { network.New(engine, mesh, network.DefaultConfig()) })
		machines[i] = allocs(func() { NewMachine(DefaultParams(k, grouping.MIMAEC)) })
		t.Logf("k=%d: network.New %v allocations, NewMachine %v", k, nets[i], machines[i])
	}
	for i := 1; i < len(ks); i++ {
		if nets[i] != nets[0] {
			t.Errorf("network.New allocates %v at k=%d but %v at k=%d, want the same at every k",
				nets[i], ks[i], nets[0], ks[0])
		}
		perNode := (machines[i] - machines[0]) / float64(ks[i]*ks[i]-ks[0]*ks[0])
		if perNode != 0 {
			t.Errorf("NewMachine allocates %.3f per node between k=%d and k=%d, want 0",
				perNode, ks[0], ks[i])
		}
	}
}

// TestBlockTableChurnAllocs pins the block tables' steady state: once the
// shared line table has grown to its working set, cache fills and
// invalidations over ever-new blocks allocate nothing (a delete leaves no
// tombstone, so churn never forces a rehash), and neither do op adds and
// removes in the per-node slots.
func TestBlockTableChurnAllocs(t *testing.T) {
	m := NewMachine(DefaultParams(4, grouping.UIUA))
	nodes := topology.NodeID(m.Mesh.Nodes())
	const live = 256 // cached lines kept valid across the machine
	ops := make([]pendingOp, nodes)
	next := directory.BlockID(live)
	step := func() {
		n := topology.NodeID(next) % nodes
		m.Cache(n).Fill(next, cache.SharedLine)
		old := next - live
		m.Cache(topology.NodeID(old) % nodes).Invalidate(old)
		if op := &ops[n]; op.block != 0 {
			m.removeOp(n)
		}
		ops[n].block = next
		m.addOp(n, &ops[n])
		next++
	}
	for b := directory.BlockID(0); b < live; b++ {
		m.Cache(topology.NodeID(b)%nodes).Fill(b, cache.SharedLine)
	}
	for range 4 * live {
		step()
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Fatalf("allocs per fill/invalidate/op churn step = %v, want 0", avg)
	}
}
