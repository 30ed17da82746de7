//simcheck:allow-file determinism,nogoroutine -- the serving workloads time wall-clock request latency from two closed-loop client goroutines by design; schedules are seeded through sim.DeriveSeed

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Request kinds of the serving mix.
const (
	kindJob    = iota // POST /v1/jobs?wait=1 with one point
	kindResult        // GET /v1/results/{fingerprint}
	kindStats         // GET /v1/stats
)

// verifyEvery samples one response in this many for the byte-identity check
// against sweep.RunPointDirect (run after the window, off the clock).
const verifyEvery = 50

// serveSpec is what distinguishes serve-warm from serve-tiered.
type serveSpec struct {
	name   string
	onDisk bool // tiered store: memory LRU over a disk directory (dsmsimd -data's store, without its journal)
	memCap int  // memory-tier capacity (0 = unbounded)
	// cold skips the pre-fill, so every first request of a point runs the
	// engine through the daemon's run queue. No workload sets it (see README,
	// "What the benchmark found"); the smoke test does, at a size where the
	// queue race is negligible, to keep the engine decorator and the
	// service.engine_* metrics wired.
	cold     bool
	universe int
	template load.PointTemplate
	requests int
	jobShare float64 // share of kindJob; the rest splits 3:1 result:stats
}

type request struct {
	kind  uint8
	point int32
}

// serve is one running daemon with its inputs.
type serve struct {
	spec     serveSpec
	traced   bool
	daemon   *service.Daemon
	dataDir  string
	universe *load.Universe
	bodies   [][]byte // pre-marshalled single-point job requests
	want     [][]byte // per universe point, sweep.RunPointDirect's Measures as JSON
	schedule []request

	// Tracing state: the active tracer, and per universe point the span and
	// op of the client request currently asking for it, which is how the
	// server-side decorators find their parent (spans are keyed by
	// fingerprint: the request carries nothing extra on the wire).
	tr       atomic.Pointer[tracer]
	diskGets atomic.Int64 // reads that fell through the memory tier (traced runs count them)
	fpIndex  map[string]int32
	current  []atomic.Int64 // op<<32 | span id
}

func setupServeWarm(c config, traced bool) (prepared, error) {
	return newServe(serveSpec{
		name:     "serve-warm",
		universe: clamp(int(2560*c.scale), 16, 256),
		template: load.PointTemplate{K: 16, Scheme: "MI-MA-ec", D: 16, Pattern: "random", Trials: 20},
		requests: c.scaled(150000, 40),
		jobShare: 0.6,
	}, c, traced)
}

// serve-tiered is dsmsimd's tiered store under a cache smaller than the
// working set: the disk tier holds every result and the memory tier starts
// empty, so a request is a memory hit or a disk read with a promotion and an
// eviction. The sizing is the middle cell of the repository's own cache-sizing
// study (internal/load/study.go, BENCH_serve.json "zipf=1.000/cap=64": 512
// points, Zipf 1.0, a 64-entry LRU, 56.5% memory hits), which is also the hit
// ratio the issue's 128-over-4096 sizing would give, at an eighth of the
// set-up cost.
//
// It is NOT the durable daemon `dsmsimd -data` runs, and its name says so:
// that daemon also journals every job (DataDir), and on this sandbox's disk a
// journalled hit costs 1.8 ms in the first run and 3.9 ms in the tenth run of
// the same code, so no bound of any width holds on it (README, "What the
// benchmark found"). And no request reaches the engine, for the reason given
// there. Its points are smaller than serve-warm's (8x8, d=8) because set-up
// computes all of them; the stored Measures have the same shape (20
// latencies each).
func setupServeTiered(c config, traced bool) (prepared, error) {
	return newServe(serveSpec{
		name:     "serve-tiered",
		onDisk:   true,
		memCap:   64,
		universe: clamp(int(5120*c.scale), 160, 512),
		template: load.PointTemplate{K: 8, Scheme: "MI-MA-ec", D: 8, Pattern: "random", Trials: 20},
		requests: c.scaled(180000, 40),
		jobShare: 1,
	}, c, traced)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func newServe(spec serveSpec, c config, traced bool) (*serve, error) {
	s := &serve{spec: spec, traced: traced}
	var err error
	s.universe, err = load.NewUniverse(spec.template, sim.DeriveSeed(c.seed, streamUniverse), spec.universe)
	if err != nil {
		return nil, err
	}
	s.bodies = make([][]byte, spec.universe)
	s.fpIndex = make(map[string]int32, spec.universe)
	s.current = make([]atomic.Int64, spec.universe)
	for i, ps := range s.universe.Specs {
		s.bodies[i] = mustJSON(service.JobRequest{Points: []service.PointSpec{ps}})
		s.fpIndex[s.universe.Fingerprints[i]] = int32(i)
	}
	// Two independent streams, so changing the mix never moves the points.
	sched := sim.DeriveSeed(c.seed, streamSchedule)
	kinds := sim.NewRNG(sim.DeriveSeed(sched, 0))
	zipf := load.NewZipf(sim.NewRNG(sim.DeriveSeed(sched, 1)), 1.0, spec.universe)
	s.schedule = make([]request, spec.requests)
	for i := range s.schedule {
		kind := uint8(kindJob)
		if u := kinds.Float64(); u >= spec.jobShare {
			kind = kindResult
			if u >= spec.jobShare+(1-spec.jobShare)*0.75 {
				kind = kindStats
			}
		}
		s.schedule[i] = request{kind: kind, point: int32(zipf.Next())}
	}

	// Every point is computed here, by the production engine entry point,
	// and (unless the spec is cold) put into the store directly. No request
	// of either workload reaches the daemon's run queue: see README, "What
	// the benchmark found".
	results := make([]sweep.Measures, spec.universe)
	s.want = make([][]byte, spec.universe)
	sweep.Each(parallel, spec.universe, func(i int) {
		p, err := s.universe.Specs[i].Point(0)
		if err != nil {
			panic("bench: universe point does not compile: " + err.Error())
		}
		results[i], _ = sweep.RunPointDirect(context.Background(), p)
		s.want[i] = mustJSON(results[i])
	})
	var store service.ResultStore
	if spec.onDisk {
		if s.dataDir, err = os.MkdirTemp(filepath.Join(c.dir, "out"), "data-"+spec.name+"-"); err != nil {
			return nil, err
		}
		if store, err = service.NewDiskStore(filepath.Join(s.dataDir, "results")); err != nil {
			return nil, err
		}
	} else {
		if err := s.start(); err != nil {
			return nil, err
		}
		store = s.daemon.Service().Store()
	}
	for i, m := range results {
		if spec.cold {
			break
		}
		if err := store.Put(s.universe.Fingerprints[i], m); err != nil {
			s.close()
			return nil, fmt.Errorf("%s pre-fill: %w", spec.name, err)
		}
	}
	if spec.onDisk {
		if err := s.start(); err != nil {
			s.close()
			return nil, err
		}
	}
	warm := spec.requests / 10
	out := s.drive(s.schedule[:warm], nil, 0)
	if out.failed > 0 {
		s.close()
		return nil, fmt.Errorf("%s warm-up: %d of %d requests failed: %v", spec.name, out.failed, warm, out.errs)
	}
	if spec.onDisk {
		// The measured daemon starts with a cold memory tier: the warm-up
		// slice ran against a throwaway daemon over the same directory
		// (which warms the runtime, the page cache and the code paths).
		s.stop()
		if err := s.start(); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// start brings up a fresh daemon on an ephemeral loopback port, over the
// result directory when the workload has a disk tier.
func (s *serve) start() error {
	cfg := service.Config{Workers: parallel}
	if s.spec.onDisk {
		disk, err := service.NewDiskStore(filepath.Join(s.dataDir, "results"))
		if err != nil {
			return err
		}
		var back service.ResultStore = disk
		if s.traced {
			back = &countedStore{ResultStore: disk, gets: &s.diskGets}
		}
		cfg.Store = service.NewTieredStore(service.NewMemoryStore(s.spec.memCap), back)
	} else {
		cfg.Store = service.NewMemoryStore(s.spec.memCap)
	}
	if s.traced {
		cfg.Store = &tracedStore{inner: cfg.Store, s: s}
		cfg.RunPoint = s.tracedRunPoint
	}
	d, err := service.StartDaemon(service.DaemonConfig{Service: cfg})
	if err != nil {
		return err
	}
	s.daemon = d
	return nil
}

// stop shuts the daemon down, keeping the data directory.
func (s *serve) stop() {
	if s.daemon == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = s.daemon.Shutdown(ctx) // best effort: the daemon is discarded either way
	cancel()
	_ = s.daemon.Err()
	s.daemon = nil
}

func (s *serve) close() {
	s.stop()
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
		s.dataDir = ""
	}
}

// sample is one response kept for the off-the-clock byte-identity check.
type sample struct {
	req  int
	kind uint8
	body []byte
}

// driven is what the closed loop reports.
type driven struct {
	lat     []time.Duration
	failed  int64
	errs    []string // first few failure reasons
	samples []sample
	kinds   [3]int64
}

// drive runs the schedule as a closed loop: `parallel` clients, each on its
// own keep-alive connection, each sending its next request only after the
// previous reply is fully read. The clients pull from one shared cursor, so
// the total work is fixed and both finish together.
func (s *serve) drive(schedule []request, tr *tracer, root int32) driven {
	out := driven{lat: make([]time.Duration, len(schedule))}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < parallel; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			transport := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
			defer transport.CloseIdleConnections()
			hc := &http.Client{Transport: transport}
			var buf bytes.Buffer
			var local driven
			for {
				i := int(next.Add(1)) - 1
				if i >= len(schedule) {
					break
				}
				rq := schedule[i]
				id := tr.begin(root, int32(i), "bench.request")
				if id != 0 && rq.kind != kindStats {
					s.current[rq.point].Store(int64(i)<<32 | int64(id))
				}
				t0 := time.Now()
				status, err := s.send(hc, rq, &buf)
				out.lat[i] = time.Since(t0)
				tr.end(id)
				local.kinds[rq.kind]++
				if err == nil {
					err = s.check(rq, status, buf.Bytes())
				}
				if err != nil {
					local.failed++
					if len(local.errs) < 3 {
						local.errs = append(local.errs, fmt.Sprintf("request %d: %v", i, err))
					}
					continue
				}
				if i%verifyEvery == 0 && rq.kind != kindStats {
					local.samples = append(local.samples, sample{req: i, kind: rq.kind, body: append([]byte(nil), buf.Bytes()...)})
				}
			}
			mu.Lock()
			out.failed += local.failed
			out.errs = append(out.errs, local.errs...)
			out.samples = append(out.samples, local.samples...)
			for k := range out.kinds {
				out.kinds[k] += local.kinds[k]
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// send issues one request and reads the whole reply into buf.
func (s *serve) send(hc *http.Client, rq request, buf *bytes.Buffer) (int, error) {
	base := s.daemon.BaseURL()
	var req *http.Request
	var err error
	switch rq.kind {
	case kindJob:
		req, err = http.NewRequest(http.MethodPost, base+"/v1/jobs?wait=1", bytes.NewReader(s.bodies[rq.point]))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	case kindResult:
		req, err = http.NewRequest(http.MethodGet, base+"/v1/results/"+s.universe.Fingerprints[rq.point], nil)
	default:
		req, err = http.NewRequest(http.MethodGet, base+"/v1/stats", nil)
	}
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// jobReply is the part of a JobResult the per-request check reads.
type jobReply struct {
	Completed int `json:"completed"`
	Partial   int `json:"partial"`
	Results   []struct {
		Fingerprint string         `json:"fingerprint"`
		Measures    sweep.Measures `json:"measures"`
	} `json:"results"`
}

// check decides whether a reply counts as a success: 2xx, well-formed, the
// right fingerprint, and (for jobs) complete rather than partial or shed.
func (s *serve) check(rq request, status int, body []byte) error {
	if status/100 != 2 {
		return fmt.Errorf("status %d: %.120s", status, body)
	}
	want := ""
	if rq.kind != kindStats {
		want = s.universe.Fingerprints[rq.point]
	}
	switch rq.kind {
	case kindJob:
		var r jobReply
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Completed != 1 || r.Partial != 0 || len(r.Results) != 1 {
			return fmt.Errorf("job completed %d partial %d results %d", r.Completed, r.Partial, len(r.Results))
		}
		if r.Results[0].Fingerprint != want {
			return fmt.Errorf("job answered fingerprint %s, want %s", r.Results[0].Fingerprint, want)
		}
	case kindResult:
		var r struct {
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Fingerprint != want {
			return fmt.Errorf("result answered fingerprint %s, want %s", r.Fingerprint, want)
		}
	default:
		var r service.StatsResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
	}
	return nil
}

// verify compares every sampled reply's Measures, as JSON bytes, with what
// sweep.RunPointDirect computed for the same point in set-up, and returns
// the number that differ.
func (s *serve) verify(schedule []request, samples []sample) (bad int64, why []string) {
	for _, sm := range samples {
		var got sweep.Measures
		if sm.kind == kindJob {
			var r jobReply
			if err := json.Unmarshal(sm.body, &r); err != nil || len(r.Results) != 1 {
				bad++
				continue
			}
			got = r.Results[0].Measures
		} else {
			var r service.ResultResponse
			if err := json.Unmarshal(sm.body, &r); err != nil {
				bad++
				continue
			}
			got = r.Measures
		}
		if !bytes.Equal(mustJSON(got), s.want[schedule[sm.req].point]) {
			bad++
			if len(why) < 3 {
				why = append(why, fmt.Sprintf("request %d: served Measures differ from sweep.RunPointDirect", sm.req))
			}
		}
	}
	return bad, why
}

func (s *serve) run(tr *tracer) *window {
	win := newWindow()
	before, _ := s.daemon.Service().Metrics().Snapshot()
	s.diskGets.Store(0)
	win.root = tr.begin(0, -1, "bench.window")
	s.tr.Store(tr)
	out := s.drive(s.schedule, tr, win.root)
	s.tr.Store(nil)
	tr.end(win.root)
	after, _ := s.daemon.Service().Metrics().Snapshot()

	win.lat = out.lat
	win.ops = int64(len(s.schedule))
	win.attempted = win.ops
	win.failed = out.failed
	win.broken = append(win.broken, out.errs...)
	bad, why := s.verify(s.schedule, out.samples)
	win.failed += bad
	win.broken = append(win.broken, why...)

	runs := after.Runs - before.Runs
	dup := after.DuplicateRuns - before.DuplicateRuns
	resolved := after.Requests - before.Requests
	win.counts["jobs"] = float64(out.kinds[kindJob])
	win.counts["results"] = float64(out.kinds[kindResult])
	win.counts["stats"] = float64(out.kinds[kindStats])
	win.counts["coalesced"] = float64(after.Coalesced - before.Coalesced)
	win.counts["duplicate_runs"] = float64(dup)
	win.counts["shed"] = float64(after.Shed - before.Shed)
	win.counts["disk_gets"] = float64(s.diskGets.Load())
	if resolved > 0 {
		win.counts["hit_ratio"] = float64(after.CacheHits-before.CacheHits+after.Coalesced-before.Coalesced) / float64(resolved)
	}
	if dup != 0 {
		win.broken = append(win.broken, fmt.Sprintf("duplicate_runs = %d, want 0", dup))
	}
	if runs != 0 && !s.spec.cold {
		win.broken = append(win.broken, fmt.Sprintf("%d engine runs inside a pre-filled window, want 0", runs))
	}
	return win
}

// ---- tracing decorators around the two seams the service already has -----

// parent resolves a fingerprint to the client request currently asking for
// it. Outside a traced window, or for a fingerprint no request registered,
// it returns no tracer and the decorators pass straight through.
func (s *serve) parent(fp string) (tr *tracer, span, op int32) {
	tr = s.tr.Load()
	if tr == nil {
		return nil, 0, 0
	}
	i, ok := s.fpIndex[fp]
	if !ok {
		return nil, 0, 0
	}
	cur := s.current[i].Load()
	if cur == 0 {
		return nil, 0, 0
	}
	return tr, int32(cur & 0xffffffff), int32(cur >> 32)
}

// tracedStore wraps Config.Store.
type tracedStore struct {
	inner service.ResultStore
	s     *serve
}

func (t *tracedStore) Get(fp string) (sweep.Measures, bool, error) {
	tr, span, op := t.s.parent(fp)
	id := tr.begin(span, op, "service.store.get")
	m, ok, err := t.inner.Get(fp)
	tr.end(id)
	return m, ok, err
}

func (t *tracedStore) Put(fp string, m sweep.Measures) error {
	tr, span, op := t.s.parent(fp)
	id := tr.begin(span, op, "service.store.put")
	err := t.inner.Put(fp, m)
	tr.end(id)
	return err
}

func (t *tracedStore) Len() (int, error) { return t.inner.Len() }

// countedStore counts the reads that reach the disk tier, which is what the
// memory tier missed.
type countedStore struct {
	service.ResultStore
	gets *atomic.Int64
}

func (c *countedStore) Get(fp string) (sweep.Measures, bool, error) {
	c.gets.Add(1)
	return c.ResultStore.Get(fp)
}

// tracedRunPoint wraps Config.RunPoint around the production engine.
func (s *serve) tracedRunPoint(ctx context.Context, p sweep.Point) (sweep.Measures, *metrics.Collector) {
	tr, span, op := s.parent(p.Fingerprint())
	id := tr.begin(span, op, "service.engine")
	m, coll := sweep.RunPointDirect(ctx, p)
	tr.end(id)
	return m, coll
}
