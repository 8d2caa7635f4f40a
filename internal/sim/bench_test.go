package sim

import (
	"testing"

	"github.com/csalt-sim/csalt/internal/core"
	"github.com/csalt-sim/csalt/internal/workload"
)

// BenchmarkEpochBatch measures the steady-state cost of one simulation
// step — generator, translation, data path, MLP bookkeeping — through the
// benchreg probe's configuration (2 cores, GUPS/GUPS, CSALT-CD), driven
// by the same min-cycle-first schedule as the run loop's batched inner
// loop. Picked up by cmd/benchreg's go-bench pass.
func BenchmarkEpochBatch(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.Scale = 0.1
	cfg.Scheme = core.CriticalityDynamic
	cfg.Mix = workload.Mix{ID: "bench", VM1: workload.GUPS, VM2: workload.GUPS}
	// Step is driven directly; run-control limits are not consulted.
	sys := MustNew(cfg)
	cores := sys.Cores()
	for i := 0; i < 20_000; i++ {
		for _, c := range cores {
			if ok, err := c.Step(); err != nil || !ok {
				b.Fatalf("warm step: ok=%v err=%v", ok, err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cores[0]
		if cores[1].Cycle() < c.Cycle() {
			c = cores[1]
		}
		if ok, err := c.Step(); err != nil || !ok {
			b.Fatalf("step: ok=%v err=%v", ok, err)
		}
	}
}
