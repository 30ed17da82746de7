package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"sort"
	"testing"

	"repro/internal/coherence"
	"repro/internal/faults"
	"repro/internal/grouping"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// canonicalJSON is the reflection oracle for appendCanonical: it decodes a
// JSON document into map[string]any (numbers as json.Number, so their exact
// source digits survive) and re-encodes it with object keys sorted at every
// depth. This path defines the fingerprint format every stored result is
// filed under, so appendCanonical must reproduce its bytes.
func canonicalJSON(in []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(in))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := writeCanonical(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeCanonical(buf *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				return err
			}
			buf.Write(kb)
			buf.WriteByte(':')
			if err := writeCanonical(buf, x[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := writeCanonical(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
	case json.Number:
		buf.WriteString(x.String())
	default:
		b, err := json.Marshal(x)
		if err != nil {
			return err
		}
		buf.Write(b)
	}
	return nil
}

// oracleFingerprint is Fingerprint computed through the reflection oracle.
func oracleFingerprint(t testing.TB, p Point) string {
	q := p
	q.Index = 0
	if q.Tune != nil && *q.Tune == (coherence.Variant{}) {
		q.Tune = nil
	}
	b, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := canonicalJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}

// checkCanonical fails t unless the byte-level canonicalizer and the oracle
// agree on p's JSON form, and on its fingerprint.
func checkCanonical(t testing.TB, p Point) {
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := canonicalJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendCanonical(nil, b); !bytes.Equal(got, want) {
		t.Fatalf("canonical form of %s\n got %s\nwant %s", b, got, want)
	}
	if got, want := p.Fingerprint(), oracleFingerprint(t, p); got != want {
		t.Fatalf("fingerprint of %s: %s; the oracle gives %s", b, got, want)
	}
}

// randomPoint draws a point that sets each optional field about half the
// time, with full-range seeds, fractional rates and an App name that mixes
// plain letters with bytes JSON must escape.
func randomPoint(r *sim.RNG) Point {
	seed := func() uint64 {
		if r.Intn(4) == 0 {
			return math.MaxUint64 - uint64(r.Intn(2))
		}
		return r.Uint64() >> uint(r.Intn(64))
	}
	p := Point{
		Index: r.Intn(100), K: 2 + r.Intn(31), Scheme: grouping.Scheme(r.Intn(9)),
		D: r.Intn(1000), Pattern: workload.Pattern(r.Intn(4)), Trials: r.Intn(5000),
		Seed: seed(),
	}
	if r.Intn(2) == 0 {
		p.ChaosSeed = seed()
	}
	if r.Intn(2) == 0 {
		p.Faults = &faults.Config{
			Seed: seed(), DropRate: r.Float64(), AckLossRate: r.Float64() / 3,
			LinkStallRate: float64(r.Intn(3)) * r.Float64(), LinkStallCycles: sim.Time(r.Intn(500)),
			RouterSlowRate: 1e-9 * r.Float64(), RouterSlowCycles: sim.Time(r.Intn(3)),
		}
	}
	if r.Intn(2) == 0 {
		p.Tune = &coherence.Variant{
			IAckBuffers: r.Intn(9), ConsumptionChannels: r.Intn(3),
			VCTDeferred: r.Intn(2) == 0,
		}
	}
	switch r.Intn(5) {
	case 0:
		h := topology.NodeID(r.Intn(1024))
		p.Home = &h
	case 1:
		p.HotSpot = &HotSpot{
			Writers: r.Intn(64), OverlapSharers: r.Intn(2) == 0, DistinctHomes: r.Intn(2) == 0,
			BusyJitter: sim.Time(r.Intn(100)), Occupancy: r.Intn(2) == 0,
		}
	case 2:
		const alphabet = "LUBarnesAPSP <>&\"\\\n\x00\x7f\xff\xfe \u00e9\uFFFD\u2028/"
		name := make([]byte, r.Intn(12))
		for i := range name {
			name[i] = alphabet[r.Intn(len(alphabet))]
		}
		p.App = string(name)
	case 3:
		p.OfferedLoad = float64(r.Intn(40)) * r.Float64()
	}
	return p
}

// TestCanonicalMatchesReflection: over seeded random points covering every
// optional field, the byte-level canonicalizer writes exactly the bytes the
// decode, sort and re-encode oracle writes, so no fingerprint moves.
func TestCanonicalMatchesReflection(t *testing.T) {
	r := sim.NewRNG(38)
	for i := 0; i < 2000; i++ {
		checkCanonical(t, randomPoint(r))
	}
}

// FuzzCanonicalJSON: a point built from fuzzed fields canonicalizes to the
// oracle's bytes.
func FuzzCanonicalJSON(f *testing.F) {
	f.Add(8, 3, 16, 0, 10, uint64(42), uint64(0), 0.0, "", 0.0, uint8(0))
	f.Add(16, 8, 64, 2, 1, uint64(math.MaxUint64), uint64(7), 0.1, "LU", 0.0, uint8(0xff))
	f.Add(4, 0, 2, 1, 1, uint64(1<<60+1), uint64(1), 1e-7, "<a&b> \xff", 12.5, uint8(0x55))
	f.Fuzz(func(t *testing.T, k, scheme, d, pattern, trials int, seed, chaos uint64,
		rate float64, app string, load float64, opt uint8) {
		p := Point{
			K: k, Scheme: grouping.Scheme(scheme), D: d, Pattern: workload.Pattern(pattern),
			Trials: trials, Seed: seed, ChaosSeed: chaos, App: app, OfferedLoad: load,
		}
		if opt&1 != 0 {
			p.Faults = &faults.Config{Seed: seed ^ chaos, DropRate: rate}
		}
		if opt&2 != 0 {
			p.Tune = &coherence.Variant{VCTDeferred: opt&4 != 0, IAckBuffers: k}
		}
		if opt&8 != 0 {
			h := topology.NodeID(d)
			p.Home = &h
		}
		if opt&16 != 0 {
			p.HotSpot = &HotSpot{Writers: trials, Occupancy: opt&32 != 0}
		}
		if _, err := json.Marshal(p); err != nil {
			return // NaN or infinite rates: Fingerprint refuses them as before
		}
		checkCanonical(t, p)
	})
}
