package oracle

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/grouping"
	"repro/internal/sim"
)

// fuzzMaxOps bounds the decoded workload so a single fuzz execution stays
// cheap; coverage comes from many inputs, not long ones.
const fuzzMaxOps = 40

// DecodeRunConfig maps an arbitrary byte string onto a valid RunConfig,
// the bridge between go test -fuzz and the harness. The mapping is total
// on inputs of at least eight bytes (shorter inputs error), so the fuzzer
// mutates machine shape, scheme, chaos schedule, fault plan, and op
// schedule all at once. allowFaults gates the fault plan. Bytes 2 and 3
// are reserved and ignored, so every corpus input keeps the meaning of its
// other bytes. Each later pair of bytes is one operation: op codes 0 and 1
// read, 2 and 3 write.
func DecodeRunConfig(data []byte, allowFaults bool) (RunConfig, error) {
	if len(data) < 8 {
		return RunConfig{}, fmt.Errorf("oracle: fuzz input needs >= 8 bytes, got %d", len(data))
	}
	k := 2 + int(data[0])%3
	cfg := RunConfig{
		Width:      k,
		Height:     k,
		Scheme:     grouping.AllSchemes[int(data[1])%len(grouping.AllSchemes)],
		ChaosSeed:  uint64(data[4]) | uint64(data[5])<<8,
		CheckEvery: 8,
	}
	if allowFaults {
		cfg.Recovery = true
		cfg.MaxRetries = 32
		cfg.Watchdog = true
		cfg.Fault = &faults.Config{
			Seed:             sim.DeriveSeed(0xF0221, uint64(data[6])|uint64(data[7])<<8),
			DropRate:         float64(data[6]%8) / 20,
			AckLossRate:      float64(data[6]>>3%8) / 40,
			LinkStallRate:    float64(data[7]%8) / 80,
			LinkStallCycles:  64,
			RouterSlowRate:   float64(data[7]>>3%8) / 80,
			RouterSlowCycles: 16,
		}
	}
	nodes := k * k
	for rest := data[8:]; len(rest) >= 2 && len(cfg.Ops) < fuzzMaxOps; rest = rest[2:] {
		a, b := rest[0], rest[1]
		op := Op{Node: int(b) % nodes, Block: int(a>>2) % 6}
		if a%4 >= 2 {
			op.Kind = OpWrite
		}
		cfg.Ops = append(cfg.Ops, op)
	}
	return cfg, nil
}
