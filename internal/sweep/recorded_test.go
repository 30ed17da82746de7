package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/coherence"
	"repro/internal/faults"
	"repro/internal/grouping"
	"repro/internal/topology"
	"repro/internal/trace"
)

// TestRecordingIsNeutral runs one point of every kind with and without a
// recorder attached: the Measures must encode to the same bytes, or tracing
// perturbs the run it explains.
func TestRecordingIsNeutral(t *testing.T) {
	corner := topology.NodeID(0)
	for name, p := range map[string]Point{
		"invalidation": {K: 8, Scheme: grouping.MIMAEC, D: 8, Trials: 3, Seed: 1},
		"homed":        {K: 8, Scheme: grouping.MIMAEC, D: 6, Trials: 3, Seed: 1, Home: &corner},
		"chaos and faults": {K: 8, Scheme: grouping.MIMAEC, D: 8, Trials: 3, Seed: 2, ChaosSeed: 5,
			Faults: &faults.Config{Seed: 9, DropRate: 0.05}},
		"E8 burst": {K: 8, Scheme: grouping.MIMAEC, D: 8, Trials: 1, Seed: 1,
			HotSpot: &HotSpot{Writers: 4, OverlapSharers: true, DistinctHomes: true, BusyJitter: 500},
			Tune:    &coherence.Variant{IAckBuffers: 2, VCTDeferred: true}},
		"E27 occupancy burst": {K: 8, Scheme: grouping.UIUA, D: 6, Trials: 1, Seed: 1,
			HotSpot: &HotSpot{Writers: 3, Occupancy: true}},
		"LU replay": {K: 4, Scheme: grouping.MIMAEC, Trials: 1, App: "LU"},
		"LU replay on a VCT machine": {K: 4, Scheme: grouping.MIMAEC, Trials: 1, App: "LU",
			Tune: &coherence.Variant{VCTDeferred: true}},
		"E23 Jacobi replay": {K: 4, Scheme: grouping.MIMAEC, Trials: 1, App: "Jacobi"},
		"E19 traffic":       {K: 8, Trials: 1, Seed: 1, OfferedLoad: 5},
	} {
		if err := p.Check(); err != nil {
			t.Fatalf("%s: point %v", name, err)
		}
		plain, _ := RunPointDirect(context.Background(), p)
		rec := trace.NewRecorder(1 << 18)
		traced, _ := RunPointRecorded(context.Background(), p, rec)
		want, err := json.Marshal(plain)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(traced)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: traced Measures differ:\n got %s\nwant %s", name, got, want)
		}
		if rec.Len() == 0 {
			t.Errorf("%s: recorder attached but nothing recorded", name)
		}
	}
}

// TestOccupancyFoldsACompleteRecording: an occupancy burst whose ring wraps
// folds the same profile as one recorded on a ring that holds every event,
// whether the ring is the point runner's own (a k=32, d=128 burst overflows
// it) or a caller's small one.
func TestOccupancyFoldsACompleteRecording(t *testing.T) {
	for _, c := range []struct {
		name string
		p    Point
		ring int
	}{
		{"own ring", Point{K: 32, Scheme: grouping.UIUA, D: 128, Trials: 1, Seed: 1,
			HotSpot: &HotSpot{Writers: 8, Occupancy: true}}, 0},
		{"small caller ring", Point{K: 8, Scheme: grouping.UIUA, D: 6, Trials: 1, Seed: 1,
			HotSpot: &HotSpot{Writers: 8, Occupancy: true}}, 1024},
	} {
		full := trace.NewRecorder(1 << 18)
		want, _ := RunPointRecorded(context.Background(), c.p, full)
		if full.Dropped() > 0 {
			t.Fatalf("%s: the reference ring of %d events wrapped", c.name, full.Cap())
		}
		var got Measures
		if c.ring == 0 {
			got, _ = RunPointDirect(context.Background(), c.p)
		} else {
			small := trace.NewRecorder(c.ring)
			got, _ = RunPointRecorded(context.Background(), c.p, small)
			if small.Dropped() == 0 {
				t.Fatalf("%s: the %d-event ring did not wrap", c.name, c.ring)
			}
		}
		t.Logf("%s: %d events, home busy %d", c.name, full.Len(), want.Occupancy.HomeBusy)
		if *got.Occupancy != *want.Occupancy {
			t.Errorf("%s: occupancy %+v; a complete recording folds %+v", c.name, *got.Occupancy, *want.Occupancy)
		}
	}
}
