package workload

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/coherence"
	"repro/internal/grouping"
)

// TestEventCountsPinned pins the number of events the engine fires for one
// fixed configuration of each simulator workload: an invalidation sweep
// (every scheme), an application replay and a traffic run. The counts are
// deterministic, so a change that adds, removes or folds events fails here
// without any timing noise, while a change that only makes events cheaper
// leaves every literal as it is. A change that removes events on purpose
// re-pins the literals and names the event kinds it removed.
func TestEventCountsPinned(t *testing.T) {
	inval := map[grouping.Scheme]uint64{
		grouping.UIUA:     18599,
		grouping.MIUAEC:   17416,
		grouping.MIMAEC:   16181,
		grouping.MIMAECRC: 15522,
		grouping.MIUAPA:   15136,
		grouping.MIMAPA:   11511,
		grouping.MIUATM:   14692,
		grouping.MIMATM:   10511,
		grouping.BR:       20092,
	}
	for _, s := range grouping.AllSchemes {
		want, ok := inval[s]
		if !ok {
			t.Errorf("%v: no pinned event count", s)
			continue
		}
		if got := RunInval(InvalConfig{K: 16, Scheme: s, D: 16, Trials: 20, Seed: 7}).EngineEvents; got != want {
			t.Errorf("RunInval k=16 d=16 %v: %d events, want %d", s, got, want)
		}
	}

	w, err := apps.ByName("LU")
	if err != nil {
		t.Fatal(err)
	}
	m := coherence.NewMachine(coherence.DefaultParams(4, grouping.MIMAEC))
	apps.Run(m, w)
	if got, want := m.Engine.Fired(), uint64(201749); got != want {
		t.Errorf("apps.Run LU 4x4 MI-MA-ec: %d events, want %d", got, want)
	}

	if got, want := RunTraffic(TrafficConfig{K: 8, Rate: 5, Duration: 20000}).EngineEvents, uint64(131648); got != want {
		t.Errorf("RunTraffic k=8 rate 5: %d events, want %d", got, want)
	}
}
