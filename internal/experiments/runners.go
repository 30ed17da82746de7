package experiments

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/report"
)

// RunnerOrder lists every named experiment in presentation order — the
// order `dsmsimctl experiment -name all` renders them. In process and
// through the daemon's experiment endpoint alike, a name resolves through
// Lab.Run, which is what makes a table served over HTTP byte-identical to
// the one an in-process run prints.
var RunnerOrder = []string{
	"table4", "table5", "latency", "homemsgs", "traffic",
	"meshsize", "buffers", "hotspot", "placement", "homes", "cons", "vcs",
	"limdir", "consistency", "forwarding", "invalsize", "update", "load",
	"tree", "torus", "barrier", "sharing", "congestion", "threehop",
	"faults", "degraded", "occupancy", "table6", "apps",
}

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
	build := l.runners(k, d, trials)[name]
	defer func() {
		switch r := recover().(type) {
		case nil:
		case error:
			err = fmt.Errorf("experiment %s failed: %w", name, r)
		default:
			err = fmt.Errorf("experiment %s failed: %v", name, r)
		}
	}()
	return build(), nil
}

// runners maps every RunnerOrder name to its table builder.
func (l Lab) runners(k, d, trials int) map[string]func() *report.Table {
	return map[string]func() *report.Table{
		"latency":     func() *report.Table { return l.FigLatencyVsSharers(k, trials) },
		"homemsgs":    func() *report.Table { return l.FigOccupancyVsSharers(k, trials) },
		"occupancy":   func() *report.Table { return l.FigOccupancyProfile(k, d, 8) },
		"traffic":     func() *report.Table { return l.FigTrafficVsSharers(k, trials) },
		"meshsize":    func() *report.Table { return l.FigLatencyVsMeshSize(d, trials) },
		"buffers":     func() *report.Table { return l.FigIAckBuffers(k, d, 4) },
		"hotspot":     func() *report.Table { return l.FigHotSpot(k, d) },
		"placement":   func() *report.Table { return l.AblationPlacement(k, d, trials) },
		"homes":       func() *report.Table { return l.FigHomePlacement(k, d, trials) },
		"cons":        func() *report.Table { return l.AblationConsumptionChannels(k, d, 4) },
		"table4":      Table4,
		"table5":      Table5,
		"table6":      l.Table6,
		"apps":        l.FigApplications,
		"vcs":         func() *report.Table { return l.FigVirtualChannels(k, d, 8) },
		"limdir":      func() *report.Table { return l.FigLimitedDirectory(8) },
		"consistency": l.FigConsistency,
		"forwarding":  l.FigDataForwarding,
		"invalsize":   l.FigInvalSizeDistribution,
		"update":      l.FigWriteUpdate,
		"load":        func() *report.Table { return l.FigOfferedLoad(k) },
		"tree":        func() *report.Table { return l.FigSoftwareTree(k, trials) },
		"torus":       func() *report.Table { return l.FigTorus(k, trials) },
		"barrier":     FigWormBarrier,
		"sharing":     l.FigSharingDependence,
		"congestion":  func() *report.Table { return FigCongestion(k, d, 8) },
		"threehop":    FigThreeHop,
		"faults":      func() *report.Table { return l.FigFaultRecovery(k, d, trials) },
		"degraded":    func() *report.Table { return l.FigDegradedMesh(k, d, trials) },
	}
}
