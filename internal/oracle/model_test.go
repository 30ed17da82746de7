package oracle

import (
	"strings"
	"testing"

	"repro/internal/grouping"
)

// TestExploreCleanSchemes exhaustively explores the fault-free model at a
// 2x2 mesh with two blocks for the paper's three principal schemes (plus
// the row/column and BRCP variants cheaply reachable at this size) and
// requires zero violations.
func TestExploreCleanSchemes(t *testing.T) {
	for _, s := range []grouping.Scheme{
		grouping.UIUA, grouping.MIUAEC, grouping.MIMAEC,
		grouping.MIMAECRC, grouping.MIUAPA, grouping.BR,
	} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Explore(ModelConfig{Width: 2, Height: 2, Blocks: 2, Scheme: s})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatalf("violation:\n%s", res.Report())
			}
			if res.States < 1000 {
				t.Fatalf("suspiciously small state space (%d states): exploration is not exhaustive",
					res.States)
			}
			if res.Terminals == 0 {
				t.Fatal("no terminal states found")
			}
		})
	}
}

// TestExploreWithFaults turns on the fault budget (worm kills, ack-loss,
// spurious timeouts) and requires the recovery layer to keep every
// interleaving safe and terminating. One block keeps the space tractable.
func TestExploreWithFaults(t *testing.T) {
	for _, s := range []grouping.Scheme{grouping.UIUA, grouping.MIUAEC, grouping.MIMAEC} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Explore(ModelConfig{
				Width: 2, Height: 2, Blocks: 1, Scheme: s,
				MaxTimeouts: 1, MaxDrops: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatalf("violation:\n%s", res.Report())
			}
		})
	}
}

// TestExploreMultiOp lets each node issue two operations, covering
// invalidate-then-refill and squashed-fill chains.
func TestExploreMultiOp(t *testing.T) {
	res, err := Explore(ModelConfig{
		Width: 2, Height: 1, Blocks: 2, Scheme: grouping.UIUA, OpsPerNode: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violation:\n%s", res.Report())
	}
}

// TestMutationCountAcks seeds the ack-dedup bug: completion judged by
// counting acknowledgments instead of draining the unacked set. A sharer
// acknowledged in two generations double-counts, so the checker must find
// a premature grant with a stale Shared copy — and print a counterexample.
func TestMutationCountAcks(t *testing.T) {
	res, err := Explore(ModelConfig{
		Width: 2, Height: 2, Blocks: 1, Scheme: grouping.UIUA,
		MaxTimeouts: 1, Mutation: MutCountAcks,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatalf("seeded ack-dedup bug not detected:\n%s", res.Report())
	}
	if res.Violation.Kind != "safety" {
		t.Fatalf("expected a safety violation, got %q: %s", res.Violation.Kind, res.Violation.Detail)
	}
	if len(res.Violation.Trace) == 0 {
		t.Fatal("counterexample trace is empty")
	}
	if !strings.Contains(res.Report(), "counterexample") {
		t.Fatalf("report lacks a counterexample:\n%s", res.Report())
	}
}

// TestMutationSkipInvalidate seeds the stale-sharer bug: sharers
// acknowledge without invalidating. The checker must catch it without any
// fault budget at all — the very first write to a shared block exhibits it.
func TestMutationSkipInvalidate(t *testing.T) {
	for _, s := range []grouping.Scheme{grouping.UIUA, grouping.MIMAEC} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Explore(ModelConfig{
				Width: 2, Height: 2, Blocks: 1, Scheme: s, Mutation: MutSkipInvalidate,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.OK() {
				t.Fatal("seeded stale-sharer bug not detected")
			}
			if res.Violation.Kind != "safety" {
				t.Fatalf("expected a safety violation, got %q: %s",
					res.Violation.Kind, res.Violation.Detail)
			}
		})
	}
}

// TestExploreDeterministic requires byte-identical reports across runs.
func TestExploreDeterministic(t *testing.T) {
	cfg := ModelConfig{Width: 2, Height: 2, Blocks: 1, Scheme: grouping.MIMAEC,
		MaxTimeouts: 1, MaxDrops: 1}
	a, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report() != b.Report() {
		t.Fatalf("reports differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", a.Report(), b.Report())
	}
}

// TestModelConfigValidate pins the config guard rails.
func TestModelConfigValidate(t *testing.T) {
	cases := []ModelConfig{
		{Width: 4, Height: 4, Blocks: 1, Scheme: grouping.UIUA},              // too many nodes
		{Width: 2, Height: 2, Blocks: 3, Scheme: grouping.UIUA},              // too many blocks
		{Width: 2, Height: 2, Blocks: 1, Scheme: grouping.UIUA, MaxDrops: 1}, // drops without timeouts
	}
	for _, cfg := range cases {
		if _, err := Explore(cfg.withDefaults()); err == nil {
			t.Errorf("config %+v unexpectedly accepted", cfg)
		}
	}
}

// TestStateCodecRoundTrip pins encode/decode as exact inverses on a state
// with every field class populated.
func TestStateCodecRoundTrip(t *testing.T) {
	md := newModel(ModelConfig{Width: 2, Height: 2, Blocks: 2,
		Scheme: grouping.MIMAEC}.withDefaults())
	st := mstate{timeouts: 2, drops: 1}
	st.cache[1][0] = lineS
	st.cache[3][1] = lineM
	st.op[2] = mop{active: true, write: true, block: 1}
	st.op[1] = mop{active: true, squash: true}
	st.op[0] = mop{active: true, dinval: true, dlast: true, block: 1, dgi: 1, depoch: 7}
	st.used[2] = 1
	st.dir[0] = mdir{st: dirW}
	st.dir[1] = mdir{st: dirE, owner: 3}
	st.epoch[0] = 7
	st.txn[0] = mtxn{active: true, epoch: 7, home: 0, requester: 3,
		remote: 0b0110, unacked: 0b0100, mustPost: 0b0010, homePending: true, gen: 1}
	st.addMsg(mmsg{typ: mInval, from: 0, to: 2, block: 0, epoch: 7, gen: 1, retry: true})
	st.addMsg(mmsg{typ: mMWorm, from: 0, block: 0, epoch: 7, gi: 1, pos: 1})
	key := md.encode(&st)
	back := md.decode(key)
	if md.encode(&back) != key {
		t.Fatal("encode/decode round trip changed the state")
	}
}
