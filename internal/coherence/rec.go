package coherence

import (
	"repro/internal/directory"
	"repro/internal/topology"
	"repro/internal/trace"
)

// AttachTrace installs rec as the machine's cycle-level event recorder,
// threading it through the network fabric and every node's protocol
// controller. Recording is purely observational — hooks only append to the
// ring, never schedule events — so an instrumented run is cycle-identical
// to an uninstrumented one. A nil recorder (the default, and safe to attach)
// keeps every hook on its zero-overhead path. Call before the run.
func (m *Machine) AttachTrace(rec *trace.Recorder) {
	m.Rec = rec
	m.Net.Rec = rec
	for i := range m.servers {
		m.servers[i].rec = rec
		m.servers[i].node = int32(i)
	}
	if rec != nil && rec.ProbeEvery > 0 {
		m.Engine.SetProbe(rec.EngineProbe(rec.ProbeEvery))
	}
}

// newOpTok returns a fresh operation token (never zero). Called only while
// recording, so untraced runs never touch the counter.
func (m *Machine) newOpTok() uint64 {
	m.nextOpTok++
	return m.nextOpTok
}

// recOp records an operation milestone (issue/miss/done). Callers guard
// with `m.Rec != nil`.
func (m *Machine) recOp(kind trace.Kind, flag uint8, node topology.NodeID, tok uint64, b directory.BlockID) {
	m.Rec.Emit(trace.Event{At: m.Engine.Now(), Kind: kind, Flag: flag,
		Node: int32(node), Txn: tok, Block: uint64(b)})
}

// recMsg records a message milestone (send/recv/directory-lookup done).
// Worm is the carrying worm's id (0 when not applicable), a the
// destination node for sends. Callers guard with `m.Rec != nil`.
func (m *Machine) recMsg(kind trace.Kind, flag uint8, node topology.NodeID, worm uint64, pm *msg, a uint64) {
	var txn uint64
	if pm.txn != nil {
		txn = pm.txn.id
	}
	m.Rec.Emit(trace.Event{At: m.Engine.Now(), Kind: kind, Flag: flag,
		Node: int32(node), Worm: worm, Txn: txn, Block: uint64(pm.block),
		A: a, B: pm.tok, Label: pm.typ.String()})
}

// recTxn records an invalidation-transaction milestone. Callers guard with
// `m.Rec != nil`.
func (m *Machine) recTxn(kind trace.Kind, t *invalTxn, a, b uint64) {
	m.Rec.Emit(trace.Event{At: m.Engine.Now(), Kind: kind,
		Node: int32(t.home), Txn: t.id, Block: uint64(t.block), A: a, B: b})
}
