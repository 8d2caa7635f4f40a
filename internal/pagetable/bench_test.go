package pagetable

import (
	"testing"

	"github.com/csalt-sim/csalt/internal/mem"
)

// benchFootprint is a tiny-scale workload's footprint: 4096 pages, one
// per 32-page stride with a hashed jitter inside the stride (the
// workload generators' VA spread), from a thread's VA base: 256 leaf
// nodes holding 16 entries each under one chain of upper-level nodes.
func benchFootprint() []mem.VAddr {
	const (
		base   = 0x10_0000_0000
		pages  = 4096
		spread = 32
	)
	vs := make([]mem.VAddr, pages)
	for p := uint64(0); p < pages; p++ {
		h := p * 0xD1B54A32D192ED03
		vs[p] = mem.VAddr(base + (p*spread+(h>>40)%spread)*mem.PageSize4K)
	}
	return vs
}

func benchTable(b *testing.B, vs []mem.VAddr) *Table {
	b.Helper()
	tbl, err := New(mem.NewFrameAllocator(0x100000000, 64<<20, false), 4)
	if err != nil {
		b.Fatal(err)
	}
	for i, v := range vs {
		if err := tbl.Map(v, mem.PAddr(0x800000000+uint64(i)<<mem.PageShift4K), mem.Page4K); err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

// BenchmarkTableMap builds the footprint's table from empty; one op is
// one Map, node allocations included.
func BenchmarkTableMap(b *testing.B) {
	vs := benchFootprint()
	b.ReportAllocs()
	var tbl *Table
	for i := 0; i < b.N; i++ {
		k := i % len(vs)
		if k == 0 {
			var err error
			if tbl, err = New(mem.NewFrameAllocator(0x100000000, 64<<20, false), 4); err != nil {
				b.Fatal(err)
			}
		}
		if err := tbl.Map(vs[k], mem.PAddr(0x800000000+uint64(k)<<mem.PageShift4K), mem.Page4K); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableLookup resolves every footprint page in turn.
func BenchmarkTableLookup(b *testing.B) {
	vs := benchFootprint()
	tbl := benchTable(b, vs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := tbl.Lookup(vs[i%len(vs)]); !ok {
			b.Fatal("footprint page unmapped")
		}
	}
}

// BenchmarkTableWalk walks every footprint page in turn into a reused
// step buffer, as the page walker does.
func BenchmarkTableWalk(b *testing.B) {
	vs := benchFootprint()
	tbl := benchTable(b, vs)
	steps := make([]Step, 0, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		if steps, _, _, ok = tbl.Walk(vs[i%len(vs)], steps[:0]); !ok {
			b.Fatal("footprint page unmapped")
		}
	}
}
