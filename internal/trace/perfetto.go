package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// This file renders a recording as Chrome/Perfetto trace JSON
// (https://ui.perfetto.dev, chrome://tracing). Each simulated node becomes
// a process; its operation, transaction, controller-service, channel-hold
// and stall activity become thread lanes of complete ("X") spans, protocol
// messages and fault hits become instants, and the engine probe becomes a
// queue-depth counter track.

// CyclesPerMicro converts cycles to trace microseconds: one cycle is 5 ns.
const CyclesPerMicro = 200.0

// lane ids within a node's process. Channel-hold lanes start at laneLinks
// and are assigned per (source node, virtual network).
const (
	laneOps = iota
	laneServer
	laneTxns
	laneStalls
	laneMsgs
	laneLinks
)

type pfEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type pfFile struct {
	Events          []pfEvent `json:"traceEvents"`
	DisplayTimeUnit string    `json:"displayTimeUnit"`
}

func micros(t sim.Time) float64 { return float64(t) / CyclesPerMicro }

// pid maps a simulated node to a Perfetto process id; the engine's
// node -1 becomes pid 0.
func pid(node int32) int64 { return int64(node) + 1 }

// WritePerfetto renders events (in emission order) as Chrome trace JSON.
func WritePerfetto(w io.Writer, events []Event) error {
	var out []pfEvent
	type spanKey struct {
		a, b uint64
	}
	opOpen := make(map[uint64]*Event)     // by op token
	txnOpen := make(map[uint64]*Event)    // by txn id
	holdOpen := make(map[spanKey]*Event)  // by (worm, path index)
	blockOpen := make(map[spanKey]*Event) // by (worm, block reason)
	linkLane := make(map[spanKey]int64)   // (source node, vn) -> lane id per dest
	seenPid := make(map[int64]bool)

	lane := func(dst int32, src uint64, vn uint8) int64 {
		k := spanKey{a: uint64(dst)<<32 | src, b: uint64(vn)}
		id, ok := linkLane[k]
		if !ok {
			id = laneLinks + int64(src)<<2 + int64(vn)
			linkLane[k] = id
			out = append(out, pfEvent{
				Name: "thread_name", Ph: "M", Pid: pid(dst), Tid: id,
				Args: map[string]any{"name": fmt.Sprintf("link %d->%d vn%d", src, dst, vn)},
			})
		}
		return id
	}
	instant := func(ev *Event, name string, tid int64, args map[string]any) {
		out = append(out, pfEvent{Name: name, Ph: "i", Ts: micros(ev.At),
			Pid: pid(ev.Node), Tid: tid, S: "t", Args: args})
	}
	span := func(node int32, name string, tid int64, from, to sim.Time, args map[string]any) {
		out = append(out, pfEvent{Name: name, Ph: "X", Ts: micros(from),
			Dur: micros(to - from), Pid: pid(node), Tid: tid, Args: args})
	}

	for i := range events {
		ev := &events[i]
		seenPid[pid(ev.Node)] = true
		switch ev.Kind {
		case KindOpIssue:
			opOpen[ev.Txn] = ev
		case KindOpMiss:
			instant(ev, "miss", laneOps, map[string]any{"block": ev.Block})
		case KindOpDone:
			if iss := opOpen[ev.Txn]; iss != nil {
				delete(opOpen, ev.Txn)
				name := "read"
				if iss.Flag == FlagWrite {
					name = "write"
				}
				if ev.Flag == FlagHit {
					name += " hit"
				}
				span(iss.Node, name, laneOps, iss.At, ev.At,
					map[string]any{"block": iss.Block, "tok": ev.Txn})
			}
		case KindTxnStart:
			txnOpen[ev.Txn] = ev
		case KindTxnDone:
			if st := txnOpen[ev.Txn]; st != nil {
				delete(txnOpen, ev.Txn)
				span(st.Node, "inval txn", laneTxns, st.At, ev.At, map[string]any{
					"txn": ev.Txn, "block": st.Block, "sharers": st.A,
					"groups": st.B, "retries": ev.A,
				})
			}
		case KindTxnRetry:
			instant(ev, "txn retry", laneTxns,
				map[string]any{"txn": ev.Txn, "retry": ev.A, "killed": ev.B})
		case KindServerBusy:
			span(ev.Node, "service", laneServer, sim.Time(ev.A), sim.Time(ev.B), nil)
		case KindMsgSend:
			instant(ev, "send "+ev.Label, laneMsgs,
				map[string]any{"worm": ev.Worm, "block": ev.Block})
		case KindMsgRecv:
			instant(ev, "recv "+ev.Label, laneMsgs,
				map[string]any{"worm": ev.Worm, "block": ev.Block})
		case KindDirDone:
			instant(ev, "dir "+ev.Label, laneServer, map[string]any{"block": ev.Block})
		case KindWormHold:
			holdOpen[spanKey{a: ev.Worm, b: ev.A}] = ev
		case KindWormRelease:
			if h := holdOpen[spanKey{a: ev.Worm, b: ev.A}]; h != nil {
				delete(holdOpen, spanKey{a: ev.Worm, b: ev.A})
				span(ev.Node, fmt.Sprintf("w%d", ev.Worm), lane(ev.Node, h.B, h.Flag),
					h.At, ev.At, nil)
			}
		case KindWormKill:
			instant(ev, "worm killed", laneMsgs, map[string]any{"worm": ev.Worm})
		case KindWormBlock:
			blockOpen[spanKey{a: ev.Worm, b: uint64(ev.Flag)}] = ev
		case KindWormGrant:
			k := spanKey{a: ev.Worm, b: uint64(ev.Flag)}
			if b := blockOpen[k]; b != nil {
				delete(blockOpen, k)
				span(ev.Node, "wait "+BlockReason(ev.Flag), laneStalls, b.At, ev.At,
					map[string]any{"worm": ev.Worm})
			}
		case KindFaultDrop, KindFaultStall, KindFaultSlow, KindFaultAckLoss:
			instant(ev, ev.Kind.String(), laneStalls,
				map[string]any{"worm": ev.Worm, "a": ev.A, "b": ev.B})
		case KindAckPost:
			instant(ev, "ack post", laneMsgs, map[string]any{"txn": ev.Txn})
		case KindEngineQueue:
			out = append(out, pfEvent{Name: "engine queue", Ph: "C", Ts: micros(ev.At),
				Pid: 0, Tid: 0, Args: map[string]any{"pending": ev.A}})
			seenPid[0] = true
		case KindWormInject, KindWormHead, KindWormDrain, KindWormDeliver,
			KindWormDone, KindWormPark, KindWormResume:
			// Head progress and delivery detail stay off the timeline; the
			// hold spans already paint the worm's footprint.
		default:
			panic("trace: unknown event kind in WritePerfetto")
		}
	}

	// Name the processes and lanes, deterministically.
	var pids []int64
	for p := range seenPid {
		pids = append(pids, p)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, p := range pids {
		name := fmt.Sprintf("node %d", p-1)
		if p == 0 {
			name = "engine"
		}
		out = append(out, pfEvent{Name: "process_name", Ph: "M", Pid: p,
			Args: map[string]any{"name": name}})
		if p == 0 {
			continue
		}
		for tid, n := range []string{"ops", "server", "txns", "stalls", "msgs"} {
			out = append(out, pfEvent{Name: "thread_name", Ph: "M", Pid: p,
				Tid: int64(tid), Args: map[string]any{"name": n}})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(pfFile{Events: out, DisplayTimeUnit: "ns"})
}
