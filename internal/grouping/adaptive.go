package grouping

import "repro/internal/topology"

// UMC is the unicast-tree multicast comparator [31] (extension): the
// invalidation propagates down a binomial tree of unicast messages among
// the sharers with acknowledgment combining back up — the software
// alternative to multidestination worms. It has no path-based grouping;
// the coherence layer implements the tree directly. Excluded from
// AllSchemes.
const UMC = Scheme(numSchemes + 1)

// ADAPT is the adaptive grouping extension: for every invalidation
// transaction it evaluates the candidate schemes' groupings against a
// simple latency/occupancy cost model and uses the cheapest. It is not one
// of the paper's six schemes (it presumes a router supporting every base
// routing's turns) and is therefore excluded from AllSchemes; it bounds
// what per-pattern scheme selection could buy.
const ADAPT = Scheme(numSchemes)

// adaptCandidates are the groupings ADAPT chooses between: the strongest
// e-cube scheme, the planar-adaptive chains and the turn-model snakes.
var adaptCandidates = []Scheme{MIMAECRC, MIMAPA, MIMATM}

// Cost weights, in cycles: a hop costs roughly router delay + flit time;
// each worm costs the home a send plus an ack receive.
const (
	costPerHop  = 6
	costPerWorm = 16
)

// adaptiveGroups plans the cheapest candidate grouping under the cost
// model; ties break toward the earliest candidate (the e-cube scheme).
//
//simcheck:noalloc
func (p *Planner) adaptiveGroups(m *topology.Mesh, home topology.NodeID) {
	best, bestCost := 0, 0
	for i, s := range adaptCandidates {
		p.reset()
		p.plan(s, m, home)
		if c := p.cost(); i == 0 || c < bestCost {
			best, bestCost = i, c
		}
	}
	if best != len(adaptCandidates)-1 {
		p.reset()
		p.plan(adaptCandidates[best], m, home)
	}
}

// cost scores the plan under construction: the critical path is
// approximated by the longest request path there and back, and the home
// pays per worm.
//
//simcheck:noalloc
func (p *Planner) cost() int {
	maxPath, start := 0, 0
	for _, sp := range p.spans {
		if l := sp.path - start - 1; l > maxPath {
			maxPath = l
		}
		start = sp.path
	}
	return 2*maxPath*costPerHop + len(p.spans)*costPerWorm
}
