package oracle

import (
	"fmt"
	"strings"
)

// OpKind classifies one memory operation in a workload or a history.
type OpKind int

const (
	// OpRead is a shared-memory load.
	OpRead OpKind = iota
	// OpWrite is a shared-memory store.
	OpWrite
	numOpKinds
)

var opKindNames = [numOpKinds]string{"read", "write"}

func (k OpKind) String() string {
	if k >= 0 && k < numOpKinds {
		return opKindNames[k]
	}
	panic("oracle: unknown op kind")
}

// Obs is one completed memory operation as observed at its issuing node.
type Obs struct {
	Kind  OpKind
	Block int
	// Tok is the unique nonzero token this write committed (writes only).
	Tok uint64
	// Saw is the token of the write whose value this read observed; zero
	// means the block's initial value (reads only).
	Saw uint64
}

func (o Obs) String() string {
	switch o.Kind {
	case OpRead:
		return fmt.Sprintf("read b%d saw %d", o.Block, o.Saw)
	case OpWrite:
		return fmt.Sprintf("write b%d tok %d", o.Block, o.Tok)
	default:
		panic("oracle: unknown op kind")
	}
}

// History is a complete multi-node execution record: per-node program-order
// streams of observations plus the per-block global write-commit order the
// run's shadow memory established.
type History struct {
	// Streams holds node n's completed operations in program order.
	Streams [][]Obs
	// Commit maps each block to its write tokens in commit order.
	Commit map[int][]uint64
}

// Check verifies the history admits a legal total order under sequential
// consistency: each node's operations keep program order, writes serialize
// per block in commit order, and every read observes the latest write
// ordered before it. With the write
// order known, legality reduces to acyclicity of a constraint graph over
// the operations — program-order edges, commit-chain edges, and for each
// read an edge from the write it observed and an edge to that write's
// commit successor. A cycle is returned as a deterministic violation.
func (h *History) Check() error {
	type vert struct {
		node, idx int
		obs       Obs
	}
	var verts []vert
	id := func(node, idx int) int { return -1 } // replaced below

	// Vertex layout: streams flattened in node order.
	offset := make([]int, len(h.Streams)+1)
	for n, stream := range h.Streams {
		offset[n+1] = offset[n] + len(stream)
		for i, o := range stream {
			verts = append(verts, vert{node: n, idx: i, obs: o})
		}
	}
	id = func(node, idx int) int { return offset[node] + idx }

	writer := make(map[uint64]int) // token -> vertex
	for v, vt := range verts {
		if vt.obs.Kind != OpWrite {
			continue
		}
		if vt.obs.Tok == 0 {
			return fmt.Errorf("oracle: node %d op %d: write with zero token", vt.node, vt.idx)
		}
		if w, dup := writer[vt.obs.Tok]; dup {
			return fmt.Errorf("oracle: token %d written by two operations (node %d op %d, node %d op %d)",
				vt.obs.Tok, verts[w].node, verts[w].idx, vt.node, vt.idx)
		}
		writer[vt.obs.Tok] = v
	}

	// next[tok] is the commit-order successor of write tok on its block;
	// first[b] the block's first committed write.
	next := make(map[uint64]uint64)
	first := make(map[int]uint64)
	pos := make(map[uint64]int)
	for b, toks := range h.Commit {
		for i, tok := range toks {
			if _, ok := writer[tok]; !ok {
				return fmt.Errorf("oracle: block %d commit order lists token %d no stream wrote", b, tok)
			}
			if verts[writer[tok]].obs.Block != b {
				return fmt.Errorf("oracle: token %d committed on block %d but written to block %d",
					tok, b, verts[writer[tok]].obs.Block)
			}
			if _, dup := pos[tok]; dup {
				return fmt.Errorf("oracle: token %d appears twice in commit order", tok)
			}
			pos[tok] = i
			if i == 0 {
				first[b] = tok
			} else {
				next[toks[i-1]] = tok
			}
		}
	}
	for tok, v := range writer {
		if _, ok := pos[tok]; !ok {
			return fmt.Errorf("oracle: node %d op %d: write token %d missing from commit order",
				verts[v].node, verts[v].idx, tok)
		}
	}

	adj := make([][]int32, len(verts))
	edge := func(u, v int) { adj[u] = append(adj[u], int32(v)) }

	// Program order: each node's operations are totally ordered.
	for n, stream := range h.Streams {
		for i := 1; i < len(stream); i++ {
			edge(id(n, i-1), id(n, i))
		}
	}

	// Commit chains.
	for _, toks := range h.Commit {
		for i := 1; i < len(toks); i++ {
			edge(writer[toks[i-1]], writer[toks[i]])
		}
	}

	// Reads-from: the observed write precedes the read; the read precedes
	// the observed write's commit successor (else the read would have seen
	// the successor). A read of the initial value precedes the block's
	// first write.
	for v, vt := range verts {
		if vt.obs.Kind != OpRead {
			continue
		}
		if vt.obs.Saw == 0 {
			if tok, ok := first[vt.obs.Block]; ok {
				edge(v, writer[tok])
			}
			continue
		}
		w, ok := writer[vt.obs.Saw]
		if !ok {
			return fmt.Errorf("oracle: node %d op %d: read of block %d saw untracked token %d",
				vt.node, vt.idx, vt.obs.Block, vt.obs.Saw)
		}
		if verts[w].obs.Block != vt.obs.Block {
			return fmt.Errorf("oracle: node %d op %d: read of block %d saw token %d written to block %d",
				vt.node, vt.idx, vt.obs.Block, vt.obs.Saw, verts[w].obs.Block)
		}
		edge(w, v)
		if succ, ok := next[vt.obs.Saw]; ok {
			edge(v, writer[succ])
		}
	}

	// Cycle detection: iterative DFS in vertex order, colors white/grey/
	// black; a back edge closes a cycle.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]byte, len(verts))
	parent := make([]int32, len(verts))
	for i := range parent {
		parent[i] = -1
	}
	for root := range verts {
		if color[root] != white {
			continue
		}
		type frame struct {
			v  int
			ei int
		}
		stack := []frame{{v: root}}
		color[root] = grey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.ei >= len(adj[f.v]) {
				color[f.v] = black
				stack = stack[:len(stack)-1]
				continue
			}
			w := int(adj[f.v][f.ei])
			f.ei++
			switch color[w] {
			case white:
				color[w] = grey
				parent[w] = int32(f.v)
				stack = append(stack, frame{v: w})
			case grey:
				// Cycle: walk parents from f.v back to w.
				cycle := []int{w}
				for v := f.v; v != w; v = int(parent[v]) {
					cycle = append(cycle, v)
				}
				var sb strings.Builder
				sb.WriteString("oracle: history admits no legal total order; cycle:")
				for i := len(cycle) - 1; i >= 0; i-- {
					vt := verts[cycle[i]]
					fmt.Fprintf(&sb, "\n  node %d op %d: %s", vt.node, vt.idx, vt.obs)
				}
				return fmt.Errorf("%s", sb.String())
			case black:
			}
		}
	}
	return nil
}
