package cache

import (
	"testing"

	"github.com/csalt-sim/csalt/internal/mem"
)

// BenchmarkCacheAccess measures the lookup-miss-fill cycle of a single
// cache level, with a footprint a few
// times the capacity so the victim-scan and writeback paths stay hot —
// the same shape the simulator's L2 sees under GUPS. Picked up by
// cmd/benchreg's go-bench pass.
func BenchmarkCacheAccess(b *testing.B) {
	c := MustNew(Config{
		Name:   "bench-l2",
		SizeKB: 512,
		Ways:   8,
		Policy: PolicyLRU,
	})
	lines := uint64(512 * 1024 / mem.LineSize * 3)
	rng := uint64(0x9E3779B97F4A7C15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		addr := mem.PAddr((rng % lines) * mem.LineSize)
		write := rng&(1<<20) != 0
		if !c.Lookup(addr, Data, write) {
			c.Fill(addr, Data, write)
		}
	}
}
