package grouping_test

import (
	"fmt"

	"repro/internal/grouping"
	"repro/internal/topology"
)

// ExampleGroup_Draw compares e-cube column grouping with west-first snake
// grouping on one sharer pattern and draws the snake worms. The snake covers
// every eastern sharer with one worm by sweeping columns boustrophedon-
// style, turns e-cube forbids, so e-cube needs a worm per sharer.
func ExampleGroup_Draw() {
	m := topology.NewSquareMesh(8)
	home := m.ID(topology.Coord{X: 1, Y: 4})
	var sharers []topology.NodeID
	for _, c := range []topology.Coord{
		{X: 3, Y: 1}, {X: 3, Y: 6}, {X: 5, Y: 2}, {X: 5, Y: 5}, {X: 6, Y: 7}, {X: 4, Y: 4},
	} {
		sharers = append(sharers, m.ID(c))
	}
	ecube := grouping.Groups(grouping.MIMAEC, m, home, sharers)
	fmt.Printf("%s (%s base routing): %d worm(s)\n", grouping.MIMAEC, grouping.MIMAEC.Base(), len(ecube))
	snake := grouping.Groups(grouping.MIMATM, m, home, sharers)
	fmt.Printf("%s (%s base routing): %d worm(s)\n", grouping.MIMATM, grouping.MIMATM.Base(), len(snake))
	for gi, g := range snake {
		fmt.Printf("worm %d: %d members, %d hops\n", gi+1, len(g.Members), len(g.Path)-1)
		fmt.Print(g.Draw(m, home, sharers))
	}
	// Output:
	// MI-MA-ec (ecube base routing): 6 worm(s)
	// MI-MA-tm (west-first base routing): 1 worm(s)
	// worm 1: 6 members, 24 hops
	// . . . . . . * .
	// . + + * . . + .
	// . + . + + * + .
	// . H . + * + + .
	// . . . + + + + .
	// . . . + + * + .
	// . . . * + . . .
	// . . . . . . . .
}
