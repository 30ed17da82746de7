//simcheck:allow-file determinism,nogoroutine -- compares two wall-clock measurements of the same code against the benchmark's own bounds

package main

import (
	"fmt"
	"io"
	"math"
)

// repeatRuns runs the full untraced set o.repeat times in fresh child
// processes, alternating the workload order, and prints per metric the
// values, the relative difference between the best and the worst run and
// PASS/FAIL against the metric's own bound. Op counts and sim_drift must be
// identical. It answers one question: can this benchmark tell a change of
// `bound` from its own noise on this machine?
func repeatRuns(o options, c config, w io.Writer) bool {
	runs := make([]*report, o.repeat)
	for i := range runs {
		order := workloadNames(i%2 == 1)
		fmt.Fprintf(w, "== repeat %d of %d (order: %v)\n", i+1, o.repeat, order)
		one := o
		one.trace = 0
		rep, err := allWorkloads(one, c, io.Discard, order)
		if err != nil {
			fatal(err)
		}
		runs[i] = rep
	}
	ok := true
	for _, def := range workloads {
		fmt.Fprintf(w, "\n%s\n", def.name)
		for _, md := range endToEnd {
			values := make([]float64, len(runs))
			lo, hi := math.Inf(1), math.Inf(-1)
			for i, rep := range runs {
				values[i] = rep.EndToEnd[def.name].Result.Metrics[md.Name].Value
				lo, hi = math.Min(lo, values[i]), math.Max(hi, values[i])
			}
			// Worsening of the worst run relative to the best, in the
			// metric's own direction.
			diff := hi/lo - 1
			verdict := "PASS"
			if diff > md.Bound {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(w, "  %-14s %-5s", md.Name, md.Unit)
			for _, v := range values {
				fmt.Fprintf(w, " %12.5g", v)
			}
			fmt.Fprintf(w, "   spread %6.2f%%  bound %4.0f%%  %s\n", 100*diff, 100*md.Bound, verdict)
		}
		first := runs[0].EndToEnd[def.name]
		same := true
		for i, rep := range runs[1:] {
			run := rep.EndToEnd[def.name]
			if run.Extras.Ops != first.Extras.Ops || run.Extras.SimDrift != first.Extras.SimDrift ||
				run.Result.Attempted != first.Result.Attempted || run.Result.Failed != first.Result.Failed {
				fmt.Fprintf(w, "  counts differ between run 1 and run %d: ops %d/%d attempted %d/%d failed %d/%d sim_drift %d/%d  FAIL\n",
					i+2, first.Extras.Ops, run.Extras.Ops, first.Result.Attempted, run.Result.Attempted,
					first.Result.Failed, run.Result.Failed, first.Extras.SimDrift, run.Extras.SimDrift)
				same = false
			}
		}
		if same {
			fmt.Fprintf(w, "  ops %d, attempted %d, failed %d, sim_drift %d: identical across runs\n",
				first.Extras.Ops, first.Result.Attempted, first.Result.Failed, first.Extras.SimDrift)
		}
		if !same || first.Result.Failed != 0 || first.Extras.SimDrift != 0 {
			ok = false
		}
	}
	return ok
}
