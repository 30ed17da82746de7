// Package oracle is the protocol-correctness subsystem: three independent
// oracles that judge the coherence protocol under interleavings the golden
// seeds never visit.
//
//  1. An exhaustive model checker (Explore): a compact abstract model of
//     the directory/cache/transaction state machine at small configs
//     (2x2-2x4 meshes, 1-2 blocks, bounded faults) explored by BFS over
//     canonicalized states, checking single-writer/exclusive-isolation
//     safety at every state — not just quiescence — plus termination and
//     recovery-rejoin liveness, with a minimal counterexample trace on
//     violation. Seeded mutations (Mutation) prove the checker's teeth.
//
//  2. A sequential-consistency checker (History.Check): per-node load/store
//     observations recorded from real Machine runs are verified post-hoc to
//     admit a legal total order per block, by cycle-detecting a constraint
//     graph built from program order, the per-block write commit order, and
//     reads-from edges.
//
//  3. A workload fuzzer (FuzzProtocol, FuzzProtocolFaults in the test
//     files): native go-fuzz harnesses decode a byte corpus into (mesh,
//     scheme, chaos schedule, fault plan, op schedule), run the real machine
//     through the harness (Run), and assert the SC checker, the coherence
//     invariants (relaxed mid-flight, strict at quiescence) and a quiet
//     liveness watchdog. cmd/oracle replays and minimizes corpus inputs
//     deterministically.
//
// Everything in this package is deterministic: reports are byte-identical
// across runs, test -parallel settings and host machines.
package oracle
