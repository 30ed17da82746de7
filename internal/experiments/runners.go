package experiments

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/report"
)

// catalog is every named experiment in presentation order — the order
// `dsmsimctl experiment -name all` renders them — with the builder of its
// table at mesh dimension k, d sharers and trials trials per configuration.
// In process and through the daemon's experiment endpoint alike, a name
// resolves through Lab.Run, which is what makes a table served over HTTP
// byte-identical to the one an in-process run prints.
var catalog = []struct {
	name  string
	build func(l Lab, k, d, trials int) *report.Table
}{
	{"table4", func(Lab, int, int, int) *report.Table { return Table4() }},
	{"table5", func(Lab, int, int, int) *report.Table { return Table5() }},
	{"latency", func(l Lab, k, _, trials int) *report.Table { return l.FigLatencyVsSharers(k, trials) }},
	{"homemsgs", func(l Lab, k, _, trials int) *report.Table { return l.FigOccupancyVsSharers(k, trials) }},
	{"traffic", func(l Lab, k, _, trials int) *report.Table { return l.FigTrafficVsSharers(k, trials) }},
	{"meshsize", func(l Lab, _, d, trials int) *report.Table { return l.FigLatencyVsMeshSize(d, trials) }},
	{"buffers", func(l Lab, k, d, _ int) *report.Table { return l.FigIAckBuffers(k, d, 4) }},
	{"hotspot", func(l Lab, k, d, _ int) *report.Table { return l.FigHotSpot(k, d) }},
	{"placement", func(l Lab, k, d, trials int) *report.Table { return l.AblationPlacement(k, d, trials) }},
	{"homes", func(l Lab, k, d, trials int) *report.Table { return l.FigHomePlacement(k, d, trials) }},
	{"cons", func(l Lab, k, d, _ int) *report.Table { return l.AblationConsumptionChannels(k, d, 4) }},
	{"vcs", func(l Lab, k, d, _ int) *report.Table { return l.FigVirtualChannels(k, d, 8) }},
	{"consistency", func(l Lab, _, _, _ int) *report.Table { return l.FigConsistency() }},
	{"invalsize", func(l Lab, _, _, _ int) *report.Table { return l.FigInvalSizeDistribution() }},
	{"load", func(l Lab, k, _, _ int) *report.Table { return l.FigOfferedLoad(k) }},
	{"sharing", func(l Lab, _, _, _ int) *report.Table { return l.FigSharingDependence() }},
	{"congestion", func(_ Lab, k, d, _ int) *report.Table { return FigCongestion(k, d, 8) }},
	{"faults", func(l Lab, k, d, trials int) *report.Table { return l.FigFaultRecovery(k, d, trials) }},
	{"occupancy", func(l Lab, k, d, _ int) *report.Table { return l.FigOccupancyProfile(k, d, 8) }},
	{"table6", func(l Lab, _, _, _ int) *report.Table { return l.Table6() }},
	{"apps", func(l Lab, _, _, _ int) *report.Table { return l.FigApplications() }},
}

// RunnerOrder lists the catalog's names in presentation order.
var RunnerOrder = func() []string {
	names := make([]string, len(catalog))
	for i, e := range catalog {
		names[i] = e.name
	}
	return names
}()

// ErrUnknownExperiment is Run's answer to a name RunnerOrder does not list.
var ErrUnknownExperiment = errors.New("unknown experiment")

// CheckName returns ErrUnknownExperiment, with the names Run knows, for a
// name RunnerOrder does not list, and nil for one it does.
func CheckName(name string) error {
	if slices.Contains(RunnerOrder, name) {
		return nil
	}
	return fmt.Errorf("%w %q (want one of %v)", ErrUnknownExperiment, name, RunnerOrder)
}

// Run renders the named experiment at mesh dimension k, d sharers and
// trials trials per configuration. Axes a figure fixes by design (writer
// counts, buffer sweep sizes) keep their historical constants so recorded
// tables regenerate unchanged. The experiment layer reports a failure by
// panicking; Run recovers it into the returned error, wrapping a panic value
// that is itself an error so callers can still match it with errors.Is.
func (l Lab) Run(name string, k, d, trials int) (t *report.Table, err error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	build := catalog[slices.Index(RunnerOrder, name)].build
	defer func() {
		switch r := recover().(type) {
		case nil:
		case error:
			err = fmt.Errorf("experiment %s failed: %w", name, r)
		default:
			err = fmt.Errorf("experiment %s failed: %v", name, r)
		}
	}()
	return build(l, k, d, trials), nil
}
