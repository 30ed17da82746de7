package sweep

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/faults"
	"repro/internal/grouping"
	"repro/internal/topology"
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
	// An empty variant is the default machine.
	q = p
	q.Tune = &coherence.Variant{}
	if q.Fingerprint() != fp {
		t.Error("an empty Tune changed the fingerprint; it must not")
	}

	// Every content field must change the hash.
	mutations := map[string]func(*Point){
		"K":           func(p *Point) { p.K = 16 },
		"Scheme":      func(p *Point) { p.Scheme = grouping.UIUA },
		"D":           func(p *Point) { p.D = 8 },
		"Pattern":     func(p *Point) { p.Pattern = workload.RowPlacement },
		"Trials":      func(p *Point) { p.Trials = 20 },
		"Seed":        func(p *Point) { p.Seed = 43 },
		"ChaosSeed":   func(p *Point) { p.ChaosSeed = 7 },
		"Faults":      func(p *Point) { p.Faults = &faults.Config{DropRate: 0.1, Seed: 9} },
		"Tune":        func(p *Point) { p.Tune = &coherence.Variant{IAckBuffers: 2} },
		"Home":        func(p *Point) { h := topology.NodeID(0); p.Home = &h },
		"HotSpot":     func(p *Point) { p.HotSpot = &HotSpot{} },
		"App":         func(p *Point) { p.App = "LU" },
		"OfferedLoad": func(p *Point) { p.OfferedLoad = 10 },
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
// every dsmsimctl -data directory in existence, so an encoder change that
// moves one makes stored results unaddressable. A change here is a format break,
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
		{"burst", func(p *Point) { p.HotSpot = &HotSpot{Writers: 4, OverlapSharers: true, Occupancy: true} }, "57ebd7b8abe3b8a10d5085765007b3cd94a5deb4faaaff1d342076d4ed6a7870"},
		{"homed", func(p *Point) { h := topology.NodeID(9); p.Home = &h }, "fff18593c691bafbf71791cdadd7e5e9c2d6bb4824c6e46b26481abad30a1f0d"},
		{"app", func(p *Point) { p.App = "LU" }, "ef43ccea92fead5530d7f2c5f83953176d15c02714afd7c1e8a39b2f8ecfdce4"},
		{"traffic", func(p *Point) { p.OfferedLoad, p.D, p.Trials = 10, 0, 1 }, "c6dedf85f6d114013b59dad9325f4da4dc9ad15984dfdaeba67d9889a959d6fd"},
	}
	for _, tc := range cases {
		p := basePoint()
		tc.mutate(&p)
		if got := p.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %s; want %s", tc.name, got, tc.want)
		}
	}
}

// TestVariantFieldsAreData walks coherence.Variant by reflection. Each field,
// set alone to a nonzero value, must be omitted from JSON while zero (so a
// point without it keeps its fingerprint), must change the Params Apply
// builds (so it is not dead data), and must change the point's fingerprint
// (so the result store never serves one machine's result for another). A
// new field that misses any of the three fails here.
func TestVariantFieldsAreData(t *testing.T) {
	base := coherence.DefaultParams(8, grouping.MIMAEC)
	fp := basePoint().Fingerprint()
	typ := reflect.TypeOf(coherence.Variant{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !strings.HasSuffix(f.Tag.Get("json"), ",omitempty") {
			t.Errorf("field %s: json tag %q lacks omitempty", f.Name, f.Tag.Get("json"))
		}
		var v coherence.Variant
		fv := reflect.ValueOf(&v).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.Int:
			fv.SetInt(7) // no default Params value is 7
		default:
			t.Fatalf("field %s: unhandled kind %v — extend this test", f.Name, f.Type.Kind())
		}
		p := base
		v.Apply(&p)
		if reflect.DeepEqual(p, base) {
			t.Errorf("field %s: Apply leaves the default Params unchanged", f.Name)
		}
		q := basePoint()
		q.Tune = &v
		if q.Fingerprint() == fp {
			t.Errorf("field %s: the fingerprint does not see it", f.Name)
		}
	}
	p := base
	(*coherence.Variant)(nil).Apply(&p)
	if !reflect.DeepEqual(p, base) {
		t.Error("a nil variant changed the Params")
	}
}

// TestKindFieldsAreData walks the point's workload-kind fields and the
// HotSpot spec by reflection: each must be omitted from JSON while zero, so
// a point without it keeps its fingerprint, and each HotSpot field, set alone
// to a nonzero value, must change the fingerprint of a burst point.
func TestKindFieldsAreData(t *testing.T) {
	typ := reflect.TypeOf(Point{})
	for _, name := range []string{"Home", "HotSpot", "App", "OfferedLoad"} {
		if f, _ := typ.FieldByName(name); !strings.HasSuffix(f.Tag.Get("json"), ",omitempty") {
			t.Errorf("Point.%s: json tag %q lacks omitempty", name, f.Tag.Get("json"))
		}
	}
	burst := basePoint()
	burst.HotSpot = &HotSpot{}
	fp := burst.Fingerprint()
	typ = reflect.TypeOf(HotSpot{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !strings.HasSuffix(f.Tag.Get("json"), ",omitempty") {
			t.Errorf("HotSpot.%s: json tag %q lacks omitempty", f.Name, f.Tag.Get("json"))
		}
		var hs HotSpot
		fv := reflect.ValueOf(&hs).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.Int:
			fv.SetInt(7)
		case reflect.Uint64:
			fv.SetUint(7)
		default:
			t.Fatalf("HotSpot.%s: unhandled kind %v — extend this test", f.Name, f.Type.Kind())
		}
		q := basePoint()
		q.HotSpot = &hs
		if q.Fingerprint() == fp {
			t.Errorf("HotSpot.%s: the fingerprint does not see it", f.Name)
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
	in := []byte(`{"b":1,"a!":0,"a":{"z":[{"y":2,"x":18446744073709551615}],"w":3},"c":[[],{},"\\ufffd\ufffd"]}`)
	want := `{"a":{"w":3,"z":[{"x":18446744073709551615,"y":2}]},"a!":0,"b":1,"c":[[],{},"\\ufffd` + "\uFFFD" + `"]}`
	if got := appendCanonical(nil, in); string(got) != want {
		t.Errorf("appendCanonical = %s, want %s", got, want)
	}
	if got, err := canonicalJSON(in); err != nil || string(got) != want {
		t.Errorf("canonicalJSON = %s (%v), want %s", got, err, want)
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
