package tlb

import (
	"testing"

	"github.com/csalt-sim/csalt/internal/mem"
)

// Benchmarks for the packed entry layouts, shaped like the simulator's own
// traffic: a working set a few times larger than capacity, so probes see
// the realistic mix of hits (refresh + LRU touch) and misses (victim
// scan + insert). cmd/benchreg's go-bench pass picks these up.

// xorshift is the benchmark's address scrambler — cheap enough not to
// drown the structure under measurement.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func BenchmarkTLBLookup(b *testing.B) {
	tl := MustNew(Config{Name: "bench-l2tlb", Entries: 1536, Ways: 12, Latency: 9})
	const pages = 4 * 1536 // 4x capacity: ~hit rate of a busy L2 TLB
	for i := uint64(0); i < pages; i++ {
		tl.Insert(mem.VAddr(i<<12), 1, mem.PAddr(i<<12), mem.Page4K)
	}
	rng := uint64(0x9E3779B97F4A7C15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng = xorshift(rng)
		v := mem.VAddr((rng % pages) << 12)
		if _, _, ok := tl.Lookup(v, 1); !ok {
			tl.Insert(v, 1, mem.PAddr(uint64(v)), mem.Page4K)
		}
	}
}

func BenchmarkPOMProbe(b *testing.B) {
	p, err := NewPOM(0x4000_0000, 4<<20) // 4 MB of POM lines
	if err != nil {
		b.Fatal(err)
	}
	pages := p.Size() / mem.LineSize * EntriesPerLine * 3
	for i := uint64(0); i < pages; i++ {
		p.Insert(mem.VAddr(i<<12), 1, mem.PAddr(i<<12))
	}
	rng := uint64(0x9E3779B97F4A7C15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng = xorshift(rng)
		v := mem.VAddr((rng % pages) << 12)
		if _, ok := p.Lookup(v, 1); !ok {
			p.Insert(v, 1, mem.PAddr(uint64(v)))
		}
	}
}
