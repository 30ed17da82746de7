package oracle

import (
	"strings"
	"testing"
)

// TestCheckLegalHistory passes a straightforwardly legal SC history.
func TestCheckLegalHistory(t *testing.T) {
	h := &History{
		Streams: [][]Obs{
			{{Kind: OpWrite, Block: 0, Tok: 1}, {Kind: OpRead, Block: 0, Saw: 1}},
			{{Kind: OpRead, Block: 0, Saw: 0}, {Kind: OpRead, Block: 0, Saw: 1},
				{Kind: OpWrite, Block: 0, Tok: 2}},
			{{Kind: OpRead, Block: 0, Saw: 2}},
		},
		Commit: map[int][]uint64{0: {1, 2}},
	}
	if err := h.Check(); err != nil {
		t.Fatalf("legal history rejected: %v", err)
	}
}

// TestCheckRejectsIllegalHistory pins the checker's core obligation: a node
// that reads a write's value and then reads the block's initial value has
// traveled backwards in time, and no total order can explain it.
func TestCheckRejectsIllegalHistory(t *testing.T) {
	h := &History{
		Streams: [][]Obs{
			{{Kind: OpWrite, Block: 0, Tok: 1}},
			{{Kind: OpRead, Block: 0, Saw: 1}, {Kind: OpRead, Block: 0, Saw: 0}},
		},
		Commit: map[int][]uint64{0: {1}},
	}
	err := h.Check()
	if err == nil {
		t.Fatal("time-travel history accepted")
	}
	if !strings.Contains(err.Error(), "no legal total order") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The reported cycle must name the offending operations.
	if !strings.Contains(err.Error(), "read b0 saw 0") {
		t.Fatalf("cycle omits the stale read: %v", err)
	}
}

// TestCheckStoreBufferLitmus runs the classic store-buffer litmus test:
// each node writes one block then reads the other, and both reads see the
// initial value. Sequential consistency forbids the outcome.
func TestCheckStoreBufferLitmus(t *testing.T) {
	h := &History{
		Streams: [][]Obs{
			{{Kind: OpWrite, Block: 0, Tok: 1}, {Kind: OpRead, Block: 1, Saw: 0}},
			{{Kind: OpWrite, Block: 1, Tok: 2}, {Kind: OpRead, Block: 0, Saw: 0}},
		},
		Commit: map[int][]uint64{0: {1}, 1: {2}},
	}
	if err := h.Check(); err == nil {
		t.Fatal("store-buffer outcome accepted under sequential consistency")
	}
}

// TestCheckCoherenceViolation verifies per-block commit order is enforced
// even across nodes with no direct interaction: two reads on one node
// observing two writes in anti-commit order form a cycle.
func TestCheckCoherenceViolation(t *testing.T) {
	h := &History{
		Streams: [][]Obs{
			{{Kind: OpWrite, Block: 0, Tok: 1}},
			{{Kind: OpWrite, Block: 0, Tok: 2}},
			{{Kind: OpRead, Block: 0, Saw: 2}, {Kind: OpRead, Block: 0, Saw: 1}},
		},
		Commit: map[int][]uint64{0: {1, 2}},
	}
	if err := h.Check(); err == nil {
		t.Fatal("anti-commit-order reads accepted")
	}
}

// TestCheckMalformedHistories pins the validation errors for histories
// that are structurally broken rather than merely illegal.
func TestCheckMalformedHistories(t *testing.T) {
	cases := []struct {
		name string
		h    *History
		want string
	}{
		{
			name: "untracked token",
			h: &History{
				Streams: [][]Obs{{{Kind: OpRead, Block: 0, Saw: 9}}},
				Commit:  map[int][]uint64{},
			},
			want: "untracked token",
		},
		{
			name: "write missing from commit order",
			h: &History{
				Streams: [][]Obs{{{Kind: OpWrite, Block: 0, Tok: 1}}},
				Commit:  map[int][]uint64{},
			},
			want: "missing from commit order",
		},
		{
			name: "zero write token",
			h: &History{
				Streams: [][]Obs{{{Kind: OpWrite, Block: 0}}},
				Commit:  map[int][]uint64{},
			},
			want: "zero token",
		},
		{
			name: "commit lists unknown token",
			h: &History{
				Streams: [][]Obs{{{Kind: OpWrite, Block: 0, Tok: 1}}},
				Commit:  map[int][]uint64{0: {1, 7}},
			},
			want: "no stream wrote",
		},
		{
			name: "cross-block observation",
			h: &History{
				Streams: [][]Obs{
					{{Kind: OpWrite, Block: 1, Tok: 1}},
					{{Kind: OpRead, Block: 0, Saw: 1}},
				},
				Commit: map[int][]uint64{1: {1}},
			},
			want: "written to block",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.h.Check()
			if err == nil {
				t.Fatal("malformed history accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q lacks %q", err, tc.want)
			}
		})
	}
}

// TestCheckDeterministicError requires byte-identical violation messages
// across runs (the checker's DFS order is fixed).
func TestCheckDeterministicError(t *testing.T) {
	mk := func() *History {
		return &History{
			Streams: [][]Obs{
				{{Kind: OpWrite, Block: 0, Tok: 1}},
				{{Kind: OpRead, Block: 0, Saw: 1}, {Kind: OpRead, Block: 0, Saw: 0}},
			},
			Commit: map[int][]uint64{0: {1}},
		}
	}
	a, b := mk().Check(), mk().Check()
	if a == nil || b == nil {
		t.Fatal("illegal history accepted")
	}
	if a.Error() != b.Error() {
		t.Fatalf("violation messages differ:\n%s\n---\n%s", a, b)
	}
}
