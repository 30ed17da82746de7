package coherence

import (
	"fmt"
	"testing"

	"repro/internal/directory"
	"repro/internal/grouping"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestConfigMatrixSoak drives random traffic through a matrix of protocol
// option combinations — scheme x VCT —
// checking the global coherence invariants at every quiescent point. This
// is the integration net that catches cross-feature interactions no
// focused test covers.
func TestConfigMatrixSoak(t *testing.T) {
	type cfg struct {
		name string
		tune func(*Params)
	}
	variants := []cfg{
		{"baseline", func(p *Params) {}},
		{"vct", func(p *Params) { p.Net.VCTDeferred = true }},
	}
	for _, s := range grouping.AllSchemes {
		for _, v := range variants {
			s, v := s, v
			t.Run(fmt.Sprintf("%v/%s", s, v.name), func(t *testing.T) {
				p := DefaultParams(4, s)
				v.tune(&p)
				m := NewMachine(p)
				rng := sim.NewRNG(uint64(31 + int(s)))
				for step := 0; step < 80; step++ {
					n := topology.NodeID(rng.Intn(m.Mesh.Nodes()))
					b := directory.BlockID(rng.Intn(8))
					done := false
					if rng.Intn(3) == 0 {
						m.Write(n, b, func() { done = true })
					} else {
						m.Read(n, b, func() { done = true })
					}
					m.Engine.Run()
					if !done {
						t.Fatalf("step %d: op incomplete (outstanding=%d)\n%s",
							step, m.Net.Outstanding(), m.Net.Diagnose())
					}
					if err := m.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			})
		}
	}
}
