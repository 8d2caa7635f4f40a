package sim

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/tlb"
	"github.com/csalt-sim/csalt/internal/trace"
)

// TestPrewarmMatchesPageTables checks the memory-resident translation
// structures New prewarms against the page tables, for every POM/TSB
// organisation × native/virtualized × huge pages × 4 KB EPT shape that
// Validate accepts. Prewarm fills the POM and TSBs from the mapping it
// has just installed rather than from a table walk; here every footprint
// page's entry is recomputed with Guest.Lookup/Host.Translate and inserted
// in visit order into fresh structures of the same geometry, whose state
// (evictions by set or slot conflicts included) must equal the prewarmed
// one exactly.
func TestPrewarmMatchesPageTables(t *testing.T) {
	for _, org := range []TranslationOrg{OrgPOM, OrgTSB} {
		for _, virt := range []bool{false, true} {
			for _, huge := range []bool{false, true} {
				for _, ept4K := range []bool{false, true} {
					name := fmt.Sprintf("%s/virt=%v/huge=%v/ept4k=%v", org, virt, huge, ept4K)
					t.Run(name, func(t *testing.T) {
						cfg := tinyConfig()
						cfg.Org, cfg.Virtualized, cfg.HugePages, cfg.EPT4K = org, virt, huge, ept4K
						checkPrewarm(t, cfg)
					})
				}
			}
		}
	}
}

func checkPrewarm(t *testing.T, cfg Config) {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.mem
	var pom *tlb.POM
	if m.pom != nil {
		pom = tlb.MustNewPOM(m.pom.Base(), m.pom.Size())
	}
	gtsb, htsb := map[mem.ASID]*tlb.TSB{}, map[mem.ASID]*tlb.TSB{}
	for asid, ts := range m.gtsb {
		gtsb[asid] = tlb.MustNewTSB(ts.Base(), ts.Size())
	}
	for asid, ts := range m.htsb {
		htsb[asid] = tlb.MustNewTSB(ts.Base(), ts.Size())
	}

	pages := 0
	for _, c := range sys.cores {
		for vi, vm := range sys.vms {
			fp, ok := c.SourceAt(vi).(trace.Footprinter)
			if !ok {
				t.Fatalf("core %d ctx %d: source has no footprint", c.ID(), vi)
			}
			fp.VisitFootprint(func(v mem.VAddr) {
				pages++
				gFrame, gSize, ok := vm.space.Guest.Lookup(v)
				if !ok {
					t.Fatalf("footprint page %#x unmapped in the guest table", v)
				}
				pa := gFrame + mem.PAddr(mem.PageOffset(v, gSize))
				if vm.space.Virtualized() {
					if pa, ok = vm.space.Host.Translate(mem.VAddr(pa)); !ok {
						t.Fatalf("footprint page %#x: gPA %#x unmapped in the host table", v, gFrame)
					}
				}
				frame := pa &^ (mem.PageSize4K - 1)
				switch {
				case pom != nil && cfg.HugePages && !cfg.Virtualized && gSize == mem.Page2M:
					pom.InsertSized(v, vm.asid, gFrame, mem.Page2M)
				case pom != nil:
					pom.Insert(v, vm.asid, frame)
				case cfg.Virtualized:
					gtsb[vm.asid].Insert(v, vm.asid, gFrame)
					htsb[vm.asid].Insert(mem.VAddr(gFrame), vm.asid, frame)
				default:
					htsb[vm.asid].Insert(v, vm.asid, frame)
				}
			})
		}
	}
	if pages == 0 {
		t.Fatal("no footprint pages visited")
	}
	if pom != nil && !reflect.DeepEqual(m.pom.SaveState(), pom.SaveState()) {
		t.Error("prewarmed POM differs from one filled from the page tables")
	}
	if (pom == nil) != (cfg.Org == OrgTSB) || len(m.htsb) != len(htsb) {
		t.Fatalf("org %s: POM built %v, %d host TSBs", cfg.Org, m.pom != nil, len(m.htsb))
	}
	for asid, ts := range m.htsb {
		if !reflect.DeepEqual(ts.SaveState(), htsb[asid].SaveState()) {
			t.Errorf("ASID %d: prewarmed host TSB differs from one filled from the page tables", asid)
		}
	}
	for asid, ts := range m.gtsb {
		if !reflect.DeepEqual(ts.SaveState(), gtsb[asid].SaveState()) {
			t.Errorf("ASID %d: prewarmed guest TSB differs from one filled from the page tables", asid)
		}
	}
}
