package grouping

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

var updatePlans = flag.Bool("update", false, "rewrite testdata/plans.golden")

// planSetsPerCase is the number of seeded random (home, sharer set) draws
// per (scheme, mesh, d).
const planSetsPerCase = 50

// planMeshes are the topologies plans.golden covers: the square meshes the
// experiments run.
func planMeshes() []struct {
	name string
	mesh *topology.Mesh
} {
	return []struct {
		name string
		mesh *topology.Mesh
	}{
		{"mesh4", topology.NewSquareMesh(4)},
		{"mesh8", topology.NewSquareMesh(8)},
		{"mesh16", topology.NewSquareMesh(16)},
		{"mesh32", topology.NewSquareMesh(32)},
	}
}

// renderPlan writes one grouping compactly, a group per "; "-separated
// field: its path from the home as run-length hop letters (see writeMoves)
// with a "*" after each hop that lands on a member, then "!" for a path that
// is not base-routing conformed. Members sit on the path in visit order, so
// the marks pin them exactly.
func renderPlan(b *bytes.Buffer, m *topology.Mesh, groups []Group) {
	for gi, g := range groups {
		if gi > 0 {
			b.WriteString("; ")
		}
		// Mark members the way the worm's destination flags do: each one at
		// its first occurrence after the previous member's.
		marks := make([]bool, len(g.Path))
		mi := 0
		for i, n := range g.Path {
			if i > 0 && mi < len(g.Members) && n == g.Members[mi] {
				marks[i] = true
				mi++
			}
		}
		if mi != len(g.Members) {
			b.WriteString("MEMBERS-OFF-PATH ")
		}
		writeMoves(b, m, g.Path, marks)
		if !g.Conformed {
			b.WriteByte('!')
		}
	}
}

// writeMoves writes a path's hops run-length encoded: a letter per run of
// same-direction hops, followed by the run's length when it exceeds one. A
// run ends early at a marked node, which is written as "*".
func writeMoves(b *bytes.Buffer, m *topology.Mesh, path []topology.NodeID, marks []bool) {
	moves := routing.Moves(m, path)
	for i := 0; i < len(moves); {
		j := i + 1
		for j < len(moves) && moves[j] == moves[i] && !marks[j] {
			j++
		}
		b.WriteByte(" EWNS"[moves[i]])
		if j-i > 1 {
			fmt.Fprint(b, j-i)
		}
		if marks[j] {
			b.WriteByte('*')
		}
		i = j
	}
}

// renderPlans renders every case plans.golden pins: a "#" header line per
// (topology, scheme, d), then one line per seeded sharer set giving the set
// index, the home and the plan. Each set is planned with both
// grouping.Groups and the one long-lived planner into one reused Plan; a
// line whose two plans differ carries both, so the golden comparison fails
// on it.
func renderPlans(p *Planner) []byte {
	var b bytes.Buffer
	var pl Plan
	for _, mc := range planMeshes() {
		m := mc.mesh
		for _, s := range AllSchemes {
			for _, d := range []int{1, 2, 4, 16, 64} {
				if d > m.Nodes()-1 {
					continue
				}
				fmt.Fprintf(&b, "# %s %v d=%d\n", mc.name, s, d)
				for set := 0; set < planSetsPerCase; set++ {
					rng := sim.NewRNG(uint64(1000*d + set + 1))
					home := topology.NodeID(rng.Intn(m.Nodes()))
					var sharers []topology.NodeID
					for _, idx := range rng.Sample(m.Nodes()-1, d) {
						n := topology.NodeID(idx)
						if n >= home {
							n++
						}
						sharers = append(sharers, n)
					}
					fresh := Groups(s, m, home, sharers)
					p.Plan(&pl, s, m, home, sharers)
					planned := pl.Groups
					fmt.Fprintf(&b, "%d %d: ", set, home)
					renderPlan(&b, m, fresh)
					var alt bytes.Buffer
					renderPlan(&alt, m, planned)
					if !bytes.HasSuffix(b.Bytes(), alt.Bytes()) {
						b.WriteString(" PLANNER ")
						b.Write(alt.Bytes())
					}
					b.WriteByte('\n')
				}
			}
		}
	}
	return b.Bytes()
}

// TestPlansGolden pins every scheme's grouping output independently of
// timing: the members and path of each group over planSetsPerCase seeded
// sharer sets per (scheme, topology, d). The golden was generated before
// the grouping layer moved onto reusable scratch, so it also proves that
// move changed nothing; planning through one planner for the whole run
// makes stale scratch show up as a diff. Regenerate only for an intended
// grouping change, with go test ./internal/grouping -run TestPlansGolden
// -update.
func TestPlansGolden(t *testing.T) {
	got := renderPlans(new(Planner))
	path := filepath.Join("testdata", "plans.golden")
	if *updatePlans {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("plans.golden line %d differs:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("plans.golden has %d lines, the run %d", len(wl), len(gl))
}
