package faults

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

func testWorm(id uint64, hops int) *network.Worm {
	return &network.Worm{ID: id, Path: make([]topology.NodeID, hops+1)}
}

// TestZeroConfigInert: a zero-valued Config must wire nothing at all — New
// returns nil so the network's Fault field stays nil and the fault-free hot
// path is untouched (the zero-perturbation guarantee).
func TestZeroConfigInert(t *testing.T) {
	if faultsCfg := (Config{Seed: 42}); faultsCfg.Enabled() {
		t.Fatal("zero-rate config reports Enabled")
	}
	if inj := New(Config{Seed: 42}); inj != nil {
		t.Fatal("New returned a non-nil injector for a fault-free config")
	}
	cfg := Config{Seed: 1, DropRate: 0.5}
	if !cfg.Enabled() || New(cfg) == nil {
		t.Fatal("config with a positive rate must produce an injector")
	}
}

// TestDecisionsPureAndDeterministic: every decision must be a pure function
// of (seed, identity) — same inputs, same answer, regardless of the `now`
// argument or call order.
func TestDecisionsPureAndDeterministic(t *testing.T) {
	cfg := Config{
		Seed: 0xBEEF, DropRate: 0.3, AckLossRate: 0.2,
		LinkStallRate: 0.2, LinkStallCycles: 16,
		RouterSlowRate: 0.2, RouterSlowCycles: 8,
	}
	a, b := New(cfg), New(cfg)
	for id := uint64(1); id <= 200; id++ {
		w := testWorm(id, 5)
		for hop := 1; hop <= 5; hop++ {
			// Different `now` values and a fresh injector: answers identical.
			if a.DropWorm(w, hop, 0) != b.DropWorm(w, hop, sim.Time(id*99)) {
				t.Fatalf("DropWorm(id=%d, hop=%d) depends on now or injector state", id, hop)
			}
			if a.LinkStall(w, hop, 0) != b.LinkStall(w, hop, 7) {
				t.Fatalf("LinkStall(id=%d, hop=%d) not pure", id, hop)
			}
			if a.RouterPenalty(w, hop, 0) != b.RouterPenalty(w, hop, 7) {
				t.Fatalf("RouterPenalty(id=%d, hop=%d) not pure", id, hop)
			}
		}
		if a.LoseAck(topology.NodeID(id%16), id, 0) != b.LoseAck(topology.NodeID(id%16), id, 1e6) {
			t.Fatalf("LoseAck(txn=%d) not pure", id)
		}
	}
}

// TestDropHopWellFormed: a doomed worm dies at exactly one hop, and that hop
// is within its path (never hop 0, the injection point).
func TestDropHopWellFormed(t *testing.T) {
	inj := New(Config{Seed: 7, DropRate: 1.0}) // every worm doomed
	for id := uint64(1); id <= 500; id++ {
		hops := 1 + int(id%8)
		w := testWorm(id, hops)
		deaths := 0
		for hop := 0; hop <= hops; hop++ {
			if inj.DropWorm(w, hop, 0) {
				if hop == 0 {
					t.Fatalf("worm %d dropped at injection hop 0", id)
				}
				deaths++
			}
		}
		if deaths != 1 {
			t.Fatalf("worm %d (hops=%d): died %d times, want exactly 1", id, hops, deaths)
		}
	}
}

// TestRatesRoughlyHonored: over many independent worms the empirical drop
// frequency must track DropRate — the hash stream is uniform enough that a
// configured 30% rate cannot silently act like 3% or 90%.
func TestRatesRoughlyHonored(t *testing.T) {
	const rate, n = 0.3, 4000
	inj := New(Config{Seed: 99, DropRate: rate})
	doomed := 0
	for id := uint64(1); id <= n; id++ {
		w := testWorm(id, 4)
		for hop := 1; hop <= 4; hop++ {
			if inj.DropWorm(w, hop, 0) {
				doomed++
				break
			}
		}
	}
	got := float64(doomed) / n
	if got < rate-0.05 || got > rate+0.05 {
		t.Fatalf("empirical drop rate %.3f, configured %.1f", got, rate)
	}
}

// TestSeedsDecorrelated: different seeds must produce different fault
// schedules (otherwise per-point sim.DeriveSeed would be pointless).
func TestSeedsDecorrelated(t *testing.T) {
	a := New(Config{Seed: 1, DropRate: 0.5})
	b := New(Config{Seed: 2, DropRate: 0.5})
	diff := 0
	for id := uint64(1); id <= 400; id++ {
		w := testWorm(id, 3)
		for hop := 1; hop <= 3; hop++ {
			if a.DropWorm(w, hop, 0) != b.DropWorm(w, hop, 0) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("seeds 1 and 2 produced identical drop schedules")
	}
}

// TestConfigFieldsParticipate sweeps every Config field by reflection: each
// field, set alone to a nonzero value, must change the config's JSON form
// (a sweep point's fingerprint serializes its faults config — a field
// invisible to JSON would let the result store serve one fault mix's result
// for another), and must flip Enabled() unless it is a pure parameter. The
// allowlist pins exactly which fields are parameters: Seed (selects, never
// injects) and the two transient-duration knobs. A new Config field added without wiring it into Enabled() or the
// JSON form fails here.
func TestConfigFieldsParticipate(t *testing.T) {
	paramOnly := map[string]bool{
		"Seed":             true,
		"LinkStallCycles":  true,
		"RouterSlowCycles": true,
	}
	zeroJSON, err := json.Marshal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var cfg Config
		fv := reflect.ValueOf(&cfg).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Float64:
			fv.SetFloat(0.5)
		case reflect.Int, reflect.Int64:
			fv.SetInt(3)
		case reflect.Uint64:
			fv.SetUint(7)
		default:
			t.Fatalf("field %s: unhandled kind %v — extend this test", f.Name, f.Type.Kind())
		}
		got, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) == string(zeroJSON) {
			t.Errorf("field %s does not serialize: point fingerprints cannot see it", f.Name)
		}
		if cfg.Enabled() != !paramOnly[f.Name] {
			if paramOnly[f.Name] {
				t.Errorf("field %s alone reports Enabled; parameters must not inject faults", f.Name)
			} else {
				t.Errorf("field %s alone does not report Enabled: the injector would ignore it", f.Name)
			}
		}
	}
}
