package oracle

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/coherence"
	"repro/internal/grouping"
	"repro/internal/network"
	"repro/internal/sweep"
)

// wedgeRun is one Barnes-Hut replay of the wedge ledger: k x k nodes, one
// processor per node, bodies bodies placed from seed.
type wedgeRun struct {
	k, bodies int
	seed      uint64
	scheme    grouping.Scheme
}

func (r wedgeRun) String() string {
	return fmt.Sprintf("%dx%d %v seed %d", r.k, r.k, r.scheme, r.seed)
}

// wedgeRuns is the ledger's matrix: every scheme at 4x4 with 128 bodies
// over seeds 1-8, and at 8x8 with 512 bodies over seeds 1, 5 and 6. These
// seeds cover every wedge family of the full 8-seed matrix at both sizes.
func wedgeRuns() []wedgeRun {
	var runs []wedgeRun
	for _, size := range []struct {
		k, bodies int
		seeds     []uint64
	}{
		{4, 128, []uint64{1, 2, 3, 4, 5, 6, 7, 8}},
		{8, 512, []uint64{1, 5, 6}},
	} {
		for _, seed := range size.seeds {
			for _, s := range grouping.AllSchemes {
				runs = append(runs, wedgeRun{size.k, size.bodies, seed, s})
			}
		}
	}
	return runs
}

// wedgedRuns is the ledger: the runs of wedgeRuns that wedge on the
// default machine (ROADMAP item 2). A run is wedged when apps.Run raises a
// *network.Wedge: the engine drained with processors unfinished or worms in
// flight.
var wedgedRuns = []string{
	"4x4 MI-MA-pa seed 4",
	"4x4 BR seed 7",
	"8x8 BR seed 1",
	"8x8 MI-MA-pa seed 1",
	"8x8 MI-MA-tm seed 5",
	"8x8 BR seed 5",
	"8x8 MI-MA-pa seed 5",
	"8x8 MI-UA-pa seed 6",
	"8x8 BR seed 6",
	"8x8 MI-MA-pa seed 6",
}

// wedgeReproducer is a fault-free FuzzProtocol input that wedges: 4x4
// MI-MA-tm, sequential consistency, no chaos, 23 operations of which 21
// complete. Its cycle: a gather worm on the reply network waits at a node
// for that node's i-ack, which the node has deferred (afterFill) until its
// read fill lands; the fill, a reply-network unicast, waits for the link
// into that node that the gather holds. It lives here and not in
// testdata/fuzz, where a failing input would fail every test run.
var wedgeReproducer = []byte("2X\x00\x00\x00\x00\x00\x00\x00\x00A22\x00\x001\x007\x00\x00\x00\x9f8$A\x0f\x00\x00\x00\x00\x00\x00\x00\x00A8\"17\x00\"%\x00\x00898&\x00\x008,B&")

// TestWedgeLedger pins the exact set of Barnes-Hut replays that wedge. It
// fails when a run wedges that the ledger does not list, and when a listed
// run completes: a change that fixes a wedge must shrink the ledger and
// say why. The fuzz-found reproducer must still wedge the same way.
func TestWedgeLedger(t *testing.T) {
	runs := wedgeRuns()
	wedged := make([]bool, len(runs))
	sweep.Each(0, len(runs), func(i int) {
		r := runs[i]
		m := coherence.NewMachine(coherence.DefaultParams(r.k, r.scheme))
		w := apps.BarnesHut(apps.BarnesConfig{Bodies: r.bodies, Procs: r.k * r.k, Seed: r.seed})
		defer func() {
			if v := recover(); v != nil {
				err, _ := v.(error)
				var w *network.Wedge
				if !errors.As(err, &w) {
					panic(v)
				}
				wedged[i] = true
			}
		}()
		apps.Run(m, w)
	})
	var got []string
	for i, r := range runs {
		if wedged[i] {
			got = append(got, r.String())
		}
	}
	for _, name := range got {
		if !slices.Contains(wedgedRuns, name) {
			t.Errorf("%s wedges but the ledger does not list it", name)
		}
	}
	for _, name := range wedgedRuns {
		if !slices.Contains(got, name) {
			t.Errorf("%s is listed as wedged but completes: remove it from the ledger", name)
		}
	}

	cfg, err := DecodeRunConfig(wedgeReproducer, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() || res.Completed != 21 || len(cfg.Ops) != 23 {
		t.Errorf("the reproducer no longer wedges at 21/23 operations:\n%s", res.Report())
	}
}
