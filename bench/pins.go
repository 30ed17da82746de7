//simcheck:allow-file determinism,nogoroutine -- pinned simulated statistics: the benchmark's proof that a faster simulator still simulates the same thing

package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The pins are compiled in, so a run needs no working-directory lookup to
// find them; -update-fingerprint rewrites the files and the next `go run`
// picks them up.
//
//go:embed testdata/fingerprint-seed*.json
var pinFS embed.FS

// pinFile is bench/testdata/fingerprint-seed<N>.json: per workload, the
// simulated statistics of one window at the given seed and scale.
type pinFile struct {
	Seed      uint64                        `json:"seed"`
	Scale     float64                       `json:"scale"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

// pin is one workload's pinned statistics.
type pin struct {
	Seed  uint64
	Scale float64
	Stats map[string]float64
}

// pinSet maps workload name to its pin.
type pinSet map[string]pin

func pinPath(dir string, seed uint64) string {
	return filepath.Join(dir, "testdata", fmt.Sprintf("fingerprint-seed%d.json", seed))
}

// loadPins returns the compiled-in pins for a seed (empty when the seed has
// none: only invariants are checked then).
func loadPins(seed uint64) (pinSet, error) {
	data, err := pinFS.ReadFile(fmt.Sprintf("testdata/fingerprint-seed%d.json", seed))
	if err != nil {
		return pinSet{}, nil
	}
	var f pinFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: corrupt pin file for seed %d: %w", seed, err)
	}
	ps := pinSet{}
	for name, stats := range f.Workloads {
		ps[name] = pin{Seed: f.Seed, Scale: f.Scale, Stats: stats}
	}
	return ps, nil
}

// drift counts what differs between a window and the pin: every violated
// invariant, and — when the pin was taken at this seed and scale — every
// statistic that is missing, extra or not exactly equal. Simulated
// statistics are deterministic, so equality is exact, not a tolerance.
func (ps pinSet) drift(name string, c config, win *window) (n int, pinned bool, why []string) {
	note := func(format string, args ...any) {
		n++
		if len(why) < 5 {
			why = append(why, fmt.Sprintf(format, args...))
		}
	}
	for _, b := range win.broken {
		note("invariant: %s", b)
	}
	p, ok := ps[name]
	if !ok || p.Seed != c.seed || p.Scale != c.scale || len(p.Stats) == 0 {
		return n, false, why
	}
	for _, key := range sortedKeys(p.Stats) {
		got, ok := win.sim[key]
		if !ok {
			note("%s: pinned, not measured", key)
		} else if got != p.Stats[key] {
			note("%s = %v, pinned %v", key, got, p.Stats[key])
		}
	}
	for _, key := range sortedKeys(win.sim) {
		if _, ok := p.Stats[key]; !ok {
			note("%s: measured, not pinned", key)
		}
	}
	return n, true, why
}

// updatePin rewrites one workload's section of the seed's pin file.
func updatePin(c config, name string, stats map[string]float64) error {
	path := pinPath(c.dir, c.seed)
	f := pinFile{Seed: c.seed, Scale: c.scale, Workloads: map[string]map[string]float64{}}
	if data, err := os.ReadFile(path); err == nil {
		var old pinFile
		if err := json.Unmarshal(data, &old); err == nil && old.Seed == c.seed && old.Scale == c.scale && old.Workloads != nil {
			f = old
		}
	}
	f.Workloads[name] = stats
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
