//simcheck:allow-file determinism,nogoroutine -- layer probes time calls into public functions with the wall clock by design; probe inputs are seeded through sim.DeriveSeed

package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/coherence"
	"repro/internal/directory"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// probes is what the layer probes measured: the declared probe metrics, and
// the derived per-op self costs the attribution multiplies counts by. The
// fields are exported for encoding/json: an all-workloads run probes once and
// hands the results to its per-workload children as a file.
type probes struct {
	M metricSet

	NsPerEvent float64
	// NetSelfNsPerFlitHop is the unicast fabric cost per flit-hop with the
	// event engine's share (events x NsPerEvent) taken out, and
	// EventsPerFlitHop the engine events one flit-hop costs.
	NetSelfNsPerFlitHop float64
	EventsPerFlitHop    float64
	// Protocol handler self costs: the op's host time minus the engine and
	// fabric time beneath it.
	ReadHitSelfNs   float64
	ReadMissSelfUs  float64
	WriteMissSelfUs float64
}

// probeScale bounds how far a smoke run may shrink the probes: below a
// fiftieth of the nominal sizes the per-op means are timer noise.
func probeScale(c config) float64 {
	if c.scale >= 1 {
		return 1
	}
	if c.scale < 0.02 {
		return 0.02
	}
	return c.scale
}

func runProbes(c config) (*probes, error) {
	// Start from a collected heap: a probe that runs while the collector is
	// still sweeping the previous window's garbage reads several times high.
	runtime.GC()
	p := &probes{M: metricSet{}}
	f := probeScale(c)
	n := func(full int) int {
		v := int(float64(full) * f)
		if v < 8 {
			v = 8
		}
		return v
	}
	seed := sim.DeriveSeed(c.seed, streamProbe)
	p.probeSim(n)
	p.probeNetwork(n, seed)
	p.probeGrouping(n, seed)
	p.probeCoherence(n, seed)
	p.probeApps(c)
	p.probeSweep(n, seed)
	if err := p.probeService(c, n, seed); err != nil {
		return nil, err
	}
	return p, nil
}

// ---- sim -----------------------------------------------------------------

func (p *probes) probeSim(n func(int) int) {
	// Steady state of 64 pending no-op events, each rescheduling itself:
	// near delays stay inside the calendar queue's bucket array, far delays
	// go through the overflow heap and its migration.
	dispatch := func(events int, delay func(i int) sim.Time) float64 {
		e := sim.NewEngine()
		fired := 0
		var fn func(arg any, i int32)
		fn = func(arg any, i int32) {
			fired++
			if fired+64 <= events {
				e.AfterCall(delay(fired), fn, nil, 0)
			}
		}
		for i := 0; i < 64; i++ {
			e.AfterCall(delay(i), fn, nil, 0)
		}
		t0 := time.Now()
		e.Run()
		return float64(time.Since(t0)) / float64(e.Fired())
	}
	events := n(5000000)
	p.NsPerEvent = dispatch(events, func(i int) sim.Time { return sim.Time(i*31%97 + 1) })
	p.M["sim.ns_per_event"] = p.NsPerEvent
	p.M["sim.ns_per_event_far"] = dispatch(events, func(i int) sim.Time { return sim.Time(2000 + i*131%4001) })

	e := sim.NewEngine()
	noop := func(arg any, i int32) {}
	for i := 0; i < 64; i++ {
		e.AfterCall(sim.Time(100000+i), noop, nil, 0)
	}
	pairs := n(2000000)
	t0 := time.Now()
	for i := 0; i < pairs; i++ {
		e.Cancel(e.AfterCall(sim.Time(i%97+1), noop, nil, 0))
	}
	p.M["sim.ns_per_cancel"] = float64(time.Since(t0)) / float64(pairs)
}

// ---- network -------------------------------------------------------------

// fabric is a bench-built engine + 16x16 mesh + network, idle but for the
// probe's own worms.
type fabric struct {
	e    *sim.Engine
	mesh *topology.Mesh
	net  *network.Network
}

func newFabric() *fabric {
	e := sim.NewEngine()
	mesh := topology.NewSquareMesh(16)
	net := network.New(e, mesh, network.DefaultConfig())
	net.OnDeliver = func(network.Delivery) {}
	return &fabric{e: e, mesh: mesh, net: net}
}

// inject launches one pooled worm over path with the given destination
// flags set by mark.
func (f *fabric) inject(kind network.Kind, vn network.VN, path []topology.NodeID, dests, payload int, txn uint64, mark func(dest []bool)) {
	w := f.net.NewWorm()
	w.Kind, w.VN, w.TxnID = kind, vn, txn
	w.Path = append(w.TakePathBuf(), path...)
	w.Dest = w.TakeDestBuf(len(path))
	mark(w.Dest)
	w.HeaderFlits = f.net.Cfg.HeaderFlits(dests)
	w.PayloadFlits = payload
	f.net.Inject(w)
}

// column returns the path up column x from row 0 to row 15.
func (f *fabric) column(x int) []topology.NodeID {
	path := make([]topology.NodeID, f.mesh.Height())
	for y := range path {
		path[y] = f.mesh.ID(topology.Coord{X: x, Y: y})
	}
	return path
}

func (p *probes) probeNetwork(n func(int) int, seed uint64) {
	// Unicast: random source/destination pairs, paths computed before the
	// clock starts, eight worms in flight at a time on an idle fabric.
	f := newFabric()
	rng := sim.NewRNG(sim.DeriveSeed(seed, 0))
	worms := n(40000)
	paths := make([][]topology.NodeID, worms)
	for i := range paths {
		src := topology.NodeID(rng.Intn(f.mesh.Nodes()))
		dst := topology.NodeID(rng.Intn(f.mesh.Nodes() - 1))
		if dst >= src {
			dst++
		}
		paths[i] = routing.ECube.UnicastPath(f.mesh, src, dst)
	}
	last := func(dest []bool) { dest[len(dest)-1] = true }
	t0 := time.Now()
	for i := 0; i < worms; i += 8 {
		for j := i; j < i+8 && j < worms; j++ {
			f.inject(network.Unicast, network.Request, paths[j], 1, 4, 0, last)
		}
		f.e.Run()
	}
	el := float64(time.Since(t0))
	hops := float64(f.net.Stats().FlitHops)
	p.M["network.ns_per_flit_hop.unicast"] = el / hops
	p.EventsPerFlitHop = float64(f.e.Fired()) / hops
	p.NetSelfNsPerFlitHop = (el - float64(f.e.Fired())*p.NsPerEvent) / hops
	if p.NetSelfNsPerFlitHop < 0 {
		p.NetSelfNsPerFlitHop = 0
	}

	// Multicast: 15-destination forward-and-absorb worms up one column.
	f = newFabric()
	all := func(dest []bool) {
		for i := 1; i < len(dest); i++ {
			dest[i] = true
		}
	}
	worms = n(10000)
	cols := make([][]topology.NodeID, 16)
	for x := range cols {
		cols[x] = f.column(x)
	}
	t0 = time.Now()
	for i := 0; i < worms; i++ {
		f.inject(network.Multicast, network.Request, cols[i%16], 15, 4, 0, all)
		f.e.Run()
	}
	p.M["network.ns_per_flit_hop.multicast"] = float64(time.Since(t0)) / float64(f.net.Stats().FlitHops)

	// Gather lap: i-reserve worm out over 15 members, the 14 intermediate
	// members post their acks, the last member launches the i-gather worm
	// back along the reversed path to the home.
	f = newFabric()
	laps := n(5000)
	rev := make([][]topology.NodeID, 16)
	for x := range rev {
		rev[x] = make([]topology.NodeID, 16)
		for y := range rev[x] {
			rev[x][y] = cols[x][15-y]
		}
	}
	t0 = time.Now()
	for i := 0; i < laps; i++ {
		x, txn := i%16, uint64(i+1)
		f.inject(network.Reserve, network.Request, cols[x], 15, 4, txn, all)
		f.e.Run()
		for y := 1; y < 15; y++ {
			f.net.PostAck(cols[x][y], txn)
		}
		f.inject(network.Gather, network.Reply, rev[x], 15, 4, txn, all)
		f.e.Run()
	}
	p.M["network.us_per_gather_lap.d15"] = float64(time.Since(t0)) / float64(laps) / 1e3
	if out := f.net.Outstanding(); out != 0 {
		panic(fmt.Sprintf("bench: gather-lap probe left %d worms in the fabric", out))
	}
}

// ---- grouping ------------------------------------------------------------

func (p *probes) probeGrouping(n func(int) int, seed uint64) {
	mesh := topology.NewSquareMesh(16)
	home := mesh.ID(topology.Coord{X: 8, Y: 8})
	sets := n(1000)
	for _, d := range []int{4, 16, 64} {
		rng := sim.NewRNG(sim.DeriveSeed(seed, uint64(100+d)))
		sharers := make([][]topology.NodeID, sets)
		for i := range sharers {
			for _, idx := range rng.Sample(mesh.Nodes()-1, d) {
				node := topology.NodeID(idx)
				if node >= home {
					node++
				}
				sharers[i] = append(sharers[i], node)
			}
		}
		var sum float64
		for _, s := range grouping.AllSchemes {
			t0 := time.Now()
			for _, set := range sharers {
				grouping.Groups(s, mesh, home, set)
			}
			ns := float64(time.Since(t0)) / float64(sets)
			sum += ns
			if d == 64 && (s == grouping.UIUA || s == grouping.MIMAEC) {
				p.M[fmt.Sprintf("grouping.ns_per_call.%s.d64", s)] = ns
			}
		}
		p.M[fmt.Sprintf("grouping.ns_per_call.d%d", d)] = sum / float64(len(grouping.AllSchemes))
	}
}

// ---- coherence -----------------------------------------------------------

// runOp drives one blocking memory operation to completion.
func runOp(m *coherence.Machine, write bool, node topology.NodeID, b directory.BlockID) {
	done := false
	if write {
		m.Write(node, b, func() { done = true })
	} else {
		m.Read(node, b, func() { done = true })
	}
	m.Engine.Run()
	if !done {
		panic("bench: probe operation did not complete")
	}
}

func (p *probes) probeCoherence(n func(int) int, seed uint64) {
	for _, kc := range []struct{ k, reps int }{{16, n(100)}, {32, n(40)}} {
		t0 := time.Now()
		for i := 0; i < kc.reps; i++ {
			coherence.NewMachine(coherence.DefaultParams(kc.k, grouping.MIMAEC))
		}
		p.M[fmt.Sprintf("coherence.us_per_new_machine.k%d", kc.k)] = float64(time.Since(t0)) / float64(kc.reps) / 1e3
	}

	// Read misses: every op reads a never-touched block from a random node
	// of an 8x8 machine, so each one is a clean miss served by the home.
	m := coherence.NewMachine(coherence.DefaultParams(8, grouping.UIUA))
	rng := sim.NewRNG(sim.DeriveSeed(seed, 200))
	ops := n(10000)
	nodes := make([]topology.NodeID, ops)
	for i := range nodes {
		nodes[i] = topology.NodeID(rng.Intn(m.Mesh.Nodes()))
	}
	events0, hops0 := m.Engine.Fired(), m.Net.Stats().FlitHops
	t0 := time.Now()
	for i, node := range nodes {
		runOp(m, false, node, directory.BlockID(i+1))
	}
	el := float64(time.Since(t0))
	p.M["coherence.us_per_read_miss"] = el / float64(ops) / 1e3
	p.ReadMissSelfUs = p.selfUs(el, m, events0, hops0, ops)
	p.M["coherence.self_us_per_read_miss"] = p.ReadMissSelfUs

	// Read hits: the same node reads the same blocks again.
	events0, hops0 = m.Engine.Fired(), m.Net.Stats().FlitHops
	t0 = time.Now()
	for i, node := range nodes {
		runOp(m, false, node, directory.BlockID(i+1))
	}
	el = float64(time.Since(t0))
	p.M["coherence.ns_per_read_hit"] = el / float64(ops)
	p.ReadHitSelfNs = p.selfUs(el, m, events0, hops0, ops) * 1e3

	// Write misses with 16 sharers: install the sharers off the clock, time
	// only the write and the invalidation transaction it triggers.
	var selfSum float64
	for _, s := range []grouping.Scheme{grouping.UIUA, grouping.MIMAEC} {
		m := coherence.NewMachine(coherence.DefaultParams(8, s))
		rng := sim.NewRNG(sim.DeriveSeed(seed, 201))
		writes := n(2000)
		var timed time.Duration
		var events, hops uint64
		for i := 0; i < writes; i++ {
			b := directory.BlockID(i + 1)
			home := m.Home(b)
			picks := rng.Sample(m.Mesh.Nodes(), 18)
			sharers := picks[:0]
			for _, x := range picks {
				if topology.NodeID(x) != home && len(sharers) < 17 {
					sharers = append(sharers, x)
				}
			}
			for _, x := range sharers[:16] {
				runOp(m, false, topology.NodeID(x), b)
			}
			e0, h0 := m.Engine.Fired(), m.Net.Stats().FlitHops
			t0 := time.Now()
			runOp(m, true, topology.NodeID(sharers[16]), b)
			timed += time.Since(t0)
			events += m.Engine.Fired() - e0
			hops += m.Net.Stats().FlitHops - h0
		}
		p.M[fmt.Sprintf("coherence.us_per_write_miss.d16.%s", s)] = float64(timed) / float64(writes) / 1e3
		self := (float64(timed) - float64(events)*p.NsPerEvent - float64(hops)*p.NetSelfNsPerFlitHop) / float64(writes) / 1e3
		if self > 0 {
			selfSum += self
		}
	}
	p.WriteMissSelfUs = selfSum / 2
}

// selfUs is an op's host time with the engine and fabric time beneath it
// taken out, in microseconds per op.
func (p *probes) selfUs(elNs float64, m *coherence.Machine, events0, hops0 uint64, ops int) float64 {
	events := float64(m.Engine.Fired() - events0)
	hops := float64(m.Net.Stats().FlitHops - hops0)
	self := (elNs - events*p.NsPerEvent - hops*p.NetSelfNsPerFlitHop) / float64(ops) / 1e3
	if self < 0 {
		return 0
	}
	return self
}

// ---- apps ----------------------------------------------------------------

func (p *probes) probeApps(c config) {
	t0 := time.Now()
	appInputs(sim.DeriveSeed(c.seed, streamApps), 1)
	p.M["apps.gen_ms"] = ms(time.Since(t0))
}

// ---- sweep ---------------------------------------------------------------

func (p *probes) probeSweep(n func(int) int, seed uint64) {
	points := make([]sweep.Point, n(20000))
	for i := range points {
		points[i] = sweep.Point{Index: i, K: 16, Scheme: grouping.MIMAEC, D: 16, Trials: 1, Seed: sim.DeriveSeed(seed, uint64(i))}
	}
	noop := func(ctx context.Context, pt sweep.Point) (sweep.Measures, *metrics.Collector) {
		return sweep.Measures{Completed: pt.Trials}, nil
	}
	t0 := time.Now()
	if _, err := sweep.Run(context.Background(), points, sweep.Options{Parallel: parallel, RunPoint: noop}); err != nil {
		panic("bench: no-op sweep failed: " + err.Error())
	}
	p.M["sweep.us_per_point_overhead"] = float64(time.Since(t0)) / float64(len(points)) / 1e3

	fps := n(5000)
	t0 = time.Now()
	for i := 0; i < fps; i++ {
		points[i%len(points)].Fingerprint()
	}
	p.M["sweep.us_per_fingerprint"] = float64(time.Since(t0)) / float64(fps) / 1e3
}

// ---- service -------------------------------------------------------------

func (p *probes) probeService(c config, n func(int) int, seed uint64) error {
	// One real result, stored under many synthetic fingerprints.
	point := sweep.Point{K: 16, Scheme: grouping.MIMAEC, D: 16, Trials: 20, Seed: sim.DeriveSeed(seed, 300)}
	meas, _ := sweep.RunPointDirect(context.Background(), point)
	fp := func(i int) string { return fmt.Sprintf("%064x", i+1) }
	per := func(t0 time.Time, ops int, unit float64) float64 {
		return float64(time.Since(t0)) / float64(ops) / unit
	}

	mem := service.NewMemoryStore(0)
	ops := n(100000)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		if err := mem.Put(fp(i), meas); err != nil {
			return err
		}
	}
	p.M["service.memstore_put_ns"] = per(t0, ops, 1)
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		if _, ok, _ := mem.Get(fp(i)); !ok {
			return fmt.Errorf("bench: memory store lost %s", fp(i))
		}
	}
	p.M["service.memstore_get_ns"] = per(t0, ops, 1)

	dir, err := os.MkdirTemp(filepath.Join(c.dir, "out"), "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := service.NewDiskStore(filepath.Join(dir, "results"))
	if err != nil {
		return err
	}
	ops = n(2000)
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		if err := disk.Put(fp(i), meas); err != nil {
			return err
		}
	}
	p.M["service.diskstore_put_us"] = per(t0, ops, 1e3)
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		if _, ok, err := disk.Get(fp(i)); err != nil || !ok {
			return fmt.Errorf("bench: disk store lost %s: %v", fp(i), err)
		}
	}
	p.M["service.diskstore_get_us"] = per(t0, ops, 1e3)
	// A one-entry front tier misses every time, so each Get is a disk read
	// plus the promotion into memory.
	tiered := service.NewTieredStore(service.NewMemoryStore(1), disk)
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		if _, ok, err := tiered.Get(fp(i)); err != nil || !ok {
			return fmt.Errorf("bench: tiered store lost %s: %v", fp(i), err)
		}
	}
	p.M["service.tiered_promote_us"] = per(t0, ops, 1e3)

	// Resolve on a cached point, without HTTP.
	svc, err := service.New(service.Config{Workers: parallel})
	if err != nil {
		return err
	}
	if err := svc.Store().Put(point.Fingerprint(), meas); err != nil {
		return err
	}
	ops = n(50000)
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		if _, _, src, err := svc.Resolve(context.Background(), point, 0, ""); err != nil || src != service.SourceCache {
			return fmt.Errorf("bench: resolve probe: source %q err %v", src, err)
		}
	}
	p.M["service.resolve_hit_us"] = per(t0, ops, 1e3)
	if err := svc.Drain(context.Background()); err != nil {
		return err
	}

	// The handler without a socket, the same request over loopback, the same
	// with the journal on, and /v1/stats: one cached point, a fresh daemon each.
	body := mustJSON(service.JobRequest{Points: []service.PointSpec{{
		K: 16, Scheme: "MI-MA-ec", D: 16, Pattern: "random", Trials: 20, Seed: point.Seed,
	}}})
	hit := func(dataDir string, overSocket bool, ops int, path string) (float64, error) {
		d, err := service.StartDaemon(service.DaemonConfig{Service: service.Config{Workers: parallel, DataDir: dataDir}})
		if err != nil {
			return 0, err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = d.Shutdown(ctx) // probe daemon, discarded
			cancel()
		}()
		if err := d.Service().Store().Put(point.Fingerprint(), meas); err != nil {
			return 0, err
		}
		handler := service.NewServer(d.Service()).Handler()
		hc := &http.Client{}
		defer hc.CloseIdleConnections()
		do := func() error {
			method, rd := http.MethodGet, bytes.NewReader(nil)
			if path == "/v1/jobs?wait=1" {
				method, rd = http.MethodPost, bytes.NewReader(body)
			}
			if !overSocket {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
				if rec.Code != http.StatusOK {
					return fmt.Errorf("bench: handler probe %s: status %d", path, rec.Code)
				}
				return nil
			}
			req, err := http.NewRequest(method, d.BaseURL()+path, rd)
			if err != nil {
				return err
			}
			resp, err := hc.Do(req)
			if err != nil {
				return err
			}
			var sink bytes.Buffer
			_, err = sink.ReadFrom(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("bench: http probe %s: status %d", path, resp.StatusCode)
			}
			return err
		}
		if err := do(); err != nil { // first call pays connection set-up
			return 0, err
		}
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			if err := do(); err != nil {
				return 0, err
			}
		}
		return per(t0, ops, 1e3), nil
	}

	journal := filepath.Join(dir, "journal")
	for _, pr := range []struct {
		name       string
		dataDir    string
		overSocket bool
		ops        int
		path       string
	}{
		{"service.handler_hit_us", "", false, n(20000), "/v1/jobs?wait=1"},
		{"service.http_hit_us", "", true, n(20000), "/v1/jobs?wait=1"},
		{"service.handler_hit_durable_us", journal, false, n(2000), "/v1/jobs?wait=1"},
		{"service.stats_us", "", false, n(20000), "/v1/stats"},
	} {
		v, err := hit(pr.dataDir, pr.overSocket, pr.ops, pr.path)
		if err != nil {
			return err
		}
		p.M[pr.name] = v
	}
	return nil
}
