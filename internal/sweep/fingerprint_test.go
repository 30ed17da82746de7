package sweep

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/faults"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func basePoint() Point {
	return Point{
		Index: 3, K: 8, Scheme: grouping.BR, D: 16,
		Pattern: workload.RandomPlacement, Trials: 10, Seed: 42,
	}
}

func TestFingerprintStableAndContentAddressed(t *testing.T) {
	p := basePoint()
	fp := p.Fingerprint()
	if len(fp) != 64 || strings.Trim(fp, "0123456789abcdef") != "" {
		t.Fatalf("fingerprint %q is not lowercase hex sha256", fp)
	}
	if p.Fingerprint() != fp {
		t.Fatal("fingerprint not stable across calls")
	}

	// Index is grid position, not content.
	q := p
	q.Index = 99
	if q.Fingerprint() != fp {
		t.Error("Index changed the fingerprint; it must not")
	}
	// Tune is excluded (unserializable), like the checkpoint fingerprint.
	q = p
	q.Tune = func(*coherence.Params) {}
	if q.Fingerprint() != fp {
		t.Error("Tune changed the fingerprint; it must not")
	}

	// Every content field must change the hash.
	mutations := map[string]func(*Point){
		"K":         func(p *Point) { p.K = 16 },
		"Scheme":    func(p *Point) { p.Scheme = grouping.UIUA },
		"D":         func(p *Point) { p.D = 8 },
		"Pattern":   func(p *Point) { p.Pattern = workload.RowPlacement },
		"Trials":    func(p *Point) { p.Trials = 20 },
		"Seed":      func(p *Point) { p.Seed = 43 },
		"ChaosSeed": func(p *Point) { p.ChaosSeed = 7 },
		"Faults":    func(p *Point) { p.Faults = &faults.Config{DropRate: 0.1, Seed: 9} },
	}
	for name, mutate := range mutations {
		q := basePoint()
		mutate(&q)
		if q.Fingerprint() == fp {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
	}
}

// TestFingerprintPinned holds literal fingerprints: they name the files of
// every dsmsimd -data directory in existence, so an encoder change that moves
// one makes stored results unaddressable. A change here is a format break,
// never a re-pin.
func TestFingerprintPinned(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Point)
		want   string
	}{
		{"plain", func(*Point) {}, "f41f35dedb162ef499d1f2354a459a32f490556065962179f277f18a16ae7d76"},
		{"chaos seed", func(p *Point) { p.ChaosSeed = 7 }, "6fc06f62fc1d18bef5581b4692d290744096fa811e9e05e8fcce4e97afde5f08"},
		{"faults", func(p *Point) { p.Faults = &faults.Config{DropRate: 0.1, Seed: 9} }, "e8e6371d9952b38bc896c98876ff8bb53f732098a6a7c4208e968aa72c767006"},
		{"max seed", func(p *Point) { p.Seed = math.MaxUint64 }, "0daeb5c2d0c42a2890d466f91a3220d579e77e0a789b47650f84fcb6ef80abd2"},
	}
	for _, tc := range cases {
		p := basePoint()
		tc.mutate(&p)
		if got := p.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %s; want %s", tc.name, got, tc.want)
		}
	}
}

// TestFingerprintSeedPrecision pins that full 64-bit seeds survive
// canonicalization: two seeds that collide under a float64 round-trip
// (they differ only below float64's 53-bit mantissa) must hash apart.
func TestFingerprintSeedPrecision(t *testing.T) {
	a, b := basePoint(), basePoint()
	a.Seed = 1 << 60
	b.Seed = 1<<60 + 1
	if float64(a.Seed) != float64(b.Seed) {
		t.Fatal("test premise broken: seeds should collide as float64")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("seeds differing below float64 precision collided; canonical JSON must keep numbers verbatim")
	}
}

func TestCanonicalJSONSortsNestedKeys(t *testing.T) {
	in := []byte(`{"b":1,"a":{"z":[{"y":2,"x":18446744073709551615}],"w":3}}`)
	got, err := canonicalJSON(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"a":{"w":3,"z":[{"x":18446744073709551615,"y":2}]},"b":1}`
	if string(got) != want {
		t.Fatalf("canonicalJSON = %s, want %s", got, want)
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		wantErr string
	}{
		{"zero value", Options{}, ""},
		{"negative parallel", Options{Parallel: -2}, "Parallel"},
		{"negative timeout", Options{PointTimeout: -time.Second}, "PointTimeout"},
		{"resume without checkpoint", Options{Resume: true}, "CheckpointPath"},
		{"resume with checkpoint", Options{Resume: true, CheckpointPath: "x.json"}, ""},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want mention of %s", tc.name, err, tc.wantErr)
		}
	}
}

func TestRunRejectsInvalidOptions(t *testing.T) {
	pts := []Point{{Index: 0, K: 4, D: 2, Trials: 1, Seed: 1}}
	_, err := Run(context.Background(), pts, Options{PointTimeout: -1})
	if err == nil || !strings.Contains(err.Error(), "PointTimeout") {
		t.Fatalf("Run accepted a negative PointTimeout: %v", err)
	}
}

// TestResumeDedupsQuarantinedByFingerprint builds a grid where two
// positions name the identical computation, runs it with a runner that
// completes the first copy but quarantines the second, then resumes: the
// quarantined position must be satisfied from its completed twin's result
// instead of re-running.
func TestResumeDedupsQuarantinedByFingerprint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.json")
	// Same content at indices 0 and 2 (same explicit seed); index 1 differs.
	pts := []Point{
		{Index: 0, K: 4, Scheme: grouping.UIUA, D: 2, Trials: 2, Seed: 5},
		{Index: 1, K: 4, Scheme: grouping.BR, D: 2, Trials: 2, Seed: 6},
		{Index: 2, K: 4, Scheme: grouping.UIUA, D: 2, Trials: 2, Seed: 5},
	}
	if pts[0].Fingerprint() != pts[2].Fingerprint() {
		t.Fatal("test premise broken: twin points must share a fingerprint")
	}
	measures := Measures{HomeMsgs: 7.5, Completed: 2}
	first, err := Run(context.Background(), pts, Options{
		Parallel:       1,
		PointTimeout:   time.Hour,
		CheckpointPath: ckpt,
		RunPoint: func(ctx context.Context, p Point) (Measures, *metrics.Collector) {
			if p.Index == 2 {
				// Never completes: times out on the first try and on the
				// doubled-budget retry, so the point quarantines.
				return Measures{Completed: 0}, nil
			}
			return measures, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.Quarantined != 1 {
		t.Fatalf("setup sweep quarantined %d points, want 1", first.Quarantined)
	}

	var reran atomic.Int64
	second, err := Run(context.Background(), pts, Options{
		Parallel:       1,
		CheckpointPath: ckpt,
		Resume:         true,
		RunPoint: func(ctx context.Context, p Point) (Measures, *metrics.Collector) {
			reran.Add(1)
			return measures, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := reran.Load(); n != 0 {
		t.Errorf("resume re-ran %d points; the quarantined twin should have been deduped", n)
	}
	if second.Resumed != 3 {
		t.Errorf("resumed %d points, want 3", second.Resumed)
	}
	r2 := second.Results[2]
	if !r2.Resumed || r2.Partial || r2.Quarantined {
		t.Errorf("quarantined twin result = %+v; want clean resumed result", r2)
	}
	if r2.Measures.HomeMsgs != measures.HomeMsgs || r2.Measures.Completed != measures.Completed {
		t.Errorf("quarantined twin measures = %+v, want the completed twin's %+v", r2.Measures, measures)
	}
}
