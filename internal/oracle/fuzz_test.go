package oracle

import (
	"testing"
)

// fuzzRound runs one decoded input through the harness and fails on any
// oracle violation. Both fuzz targets share it; they differ only in
// whether the decoder arms the fault plan.
func fuzzRound(t *testing.T, data []byte, allowFaults bool) {
	cfg, err := DecodeRunConfig(data, allowFaults)
	if err != nil {
		t.Skip()
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("harness rejected decoded config %s: %v", cfg, err)
	}
	if !res.OK() {
		t.Fatalf("oracle violation:\n%s", res.Report())
	}
}

// fuzzSeeds is the hand-picked seed corpus: each entry pins a regime the
// fuzzer should start from (schemes x faults), with an op tail dense in
// block-0 contention. The byte layout is documented on DecodeRunConfig;
// each seed still sets the reserved bytes 2 and 3, so the corpus stays
// byte-for-byte what it was.
func fuzzSeeds() [][]byte {
	head := func(k, scheme, reserved2, reserved3, seed byte) []byte {
		return []byte{k, scheme, reserved2, reserved3, seed, 0, 0x2a, 0x15}
	}
	// Contention tail: every node hammers block 0 with a read/write mix,
	// plus a spread of reads over blocks 1-5.
	var tail []byte
	for i := byte(0); i < 16; i++ {
		tail = append(tail, 2+(i%3)*4, i)  // write block i%3
		tail = append(tail, (i%6)<<2, i*7) // read block i%6
	}
	var seeds [][]byte
	for scheme := byte(0); scheme < 9; scheme++ {
		seeds = append(seeds, append(head(scheme%3, scheme, scheme&1, scheme%4, scheme*17), tail...))
	}
	return seeds
}

// FuzzProtocol fuzzes fault-free executions: mesh shape, scheme, chaos
// schedule, and op order all come from the input bytes.
// Every execution must complete, quiesce, satisfy the global coherence
// invariants, and record a history with a legal total order.
func FuzzProtocol(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRound(t, data, false)
	})
}

// FuzzProtocolFaults fuzzes fault-injected executions: the input also
// selects worm-drop, ack-loss, link-stall, and router-slowdown rates, and
// the run must additionally keep the liveness watchdog quiet while
// recovery masks every fault.
func FuzzProtocolFaults(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRound(t, data, true)
	})
}
