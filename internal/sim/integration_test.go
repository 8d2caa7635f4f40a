package sim

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/csalt-sim/csalt/internal/core"
	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/trace"
	"github.com/csalt-sim/csalt/internal/workload"
)

// TestTranslateAgreesAcrossOrgs: every translation organisation must
// resolve the same virtual address to the same host-physical address —
// they differ in cost, never in correctness.
func TestTranslateAgreesAcrossOrgs(t *testing.T) {
	var answers []mem.PAddr
	for _, org := range []TranslationOrg{OrgConventional, OrgPOM, OrgTSB} {
		cfg := tinyConfig()
		cfg.Org = org
		sys := MustNew(cfg)
		vm := sys.vms[0]
		var pas []mem.PAddr
		for i := 0; i < 50; i++ {
			v := vaBase(0) + mem.VAddr(i*mem.PageSize4K+0x123)
			if _, err := vm.ensureMapped(v); err != nil {
				t.Fatal(err)
			}
			_, pa, _, err := sys.Mem().Translate(0, v, vm.asid, 0)
			if err != nil {
				t.Fatalf("org %v: %v", org, err)
			}
			pas = append(pas, pa)
		}
		if answers == nil {
			answers = pas
			continue
		}
		for i := range pas {
			if pas[i] != answers[i] {
				t.Fatalf("org %v disagrees at %d: %#x vs %#x", org, i, pas[i], answers[i])
			}
		}
	}
}

// TestTranslateRepeatedlyStable: translating the same address twice gives
// the same physical address, under every organisation, with all the
// caching layers in between.
func TestTranslateRepeatedlyStable(t *testing.T) {
	for _, org := range []TranslationOrg{OrgConventional, OrgPOM, OrgTSB} {
		cfg := tinyConfig()
		cfg.Org = org
		sys := MustNew(cfg)
		m := sys.Mem()
		vm := sys.vms[0]
		v := vaBase(0) + 0x5123
		if _, err := vm.ensureMapped(v); err != nil {
			t.Fatal(err)
		}
		_, first, _, err := m.Translate(0, v, vm.asid, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			_, pa, _, err := m.Translate(uint64(i)*1000, v, vm.asid, 0)
			if err != nil {
				t.Fatal(err)
			}
			if pa != first {
				t.Fatalf("org %v: translation drifted: %#x vs %#x", org, pa, first)
			}
		}
	}
}

// TestPrewarmEliminatesCompulsoryWalks: with prewarm on (default), a
// POM-organisation run performs no page walks at all — every L2 TLB miss
// is satisfied by the pre-populated POM-TLB.
func TestPrewarmEliminatesCompulsoryWalks(t *testing.T) {
	res := runTiny(t, nil)
	if res.PageWalks != 0 {
		t.Errorf("prewarmed POM run performed %d walks", res.PageWalks)
	}
	if res.WalksEliminated < 0.999 {
		t.Errorf("walks eliminated = %v, want ~1.0", res.WalksEliminated)
	}
}

// TestNoPrewarmRestoresCompulsory: disabling prewarm brings first-touch
// walks back.
func TestNoPrewarmRestoresCompulsory(t *testing.T) {
	res := runTiny(t, func(c *Config) { c.NoPrewarm = true })
	if res.PageWalks == 0 {
		t.Error("NoPrewarm run performed no walks")
	}
}

// TestTraceDirReplay: generate traces to disk, replay them through the
// simulator, and check the run matches a generator-driven run in workload
// shape (same pages touched, similar miss profile).
func TestTraceDirReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	cfg.Cores = 1
	cfg.ContextsPerCore = 1
	cfg.MaxRefsPerCore = 8_000
	cfg.WarmupRefs = 1_000

	// Write the exact stream the generator-driven system would use.
	src := workload.MustNew(cfg.Mix.VM1, workload.Params{
		ASID: 1, Base: vaBase(0), Seed: cfg.Seed, Scale: cfg.Scale,
	})
	path := filepath.Join(dir, "vm1_core0.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		r, _ := src.Next()
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	gen, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	genRes, err := gen.Run()
	if err != nil {
		t.Fatal(err)
	}

	cfgT := cfg
	cfgT.TraceDir = dir
	rep, err := New(cfgT)
	if err != nil {
		t.Fatal(err)
	}
	repRes, err := rep.Run()
	if err != nil {
		t.Fatal(err)
	}

	// The replayed stream is identical record-for-record, so retirement
	// counts match exactly. Timing may differ within a whisker: prewarm
	// enumerates the generator's full footprint but only the trace's
	// touched pages, so physical frame assignment (and thus cache-set
	// placement) is not byte-identical.
	if repRes.Instructions != genRes.Instructions {
		t.Errorf("instructions: replay %d vs gen %d", repRes.Instructions, genRes.Instructions)
	}
	if repRes.L2TLBMisses != genRes.L2TLBMisses {
		t.Errorf("L2 TLB misses: replay %d vs gen %d", repRes.L2TLBMisses, genRes.L2TLBMisses)
	}
	ratio := float64(repRes.Cycles) / float64(genRes.Cycles)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("cycles diverged: replay %d vs gen %d", repRes.Cycles, genRes.Cycles)
	}
}

func TestTraceDirMissingFile(t *testing.T) {
	cfg := tinyConfig()
	cfg.TraceDir = t.TempDir()
	if _, err := New(cfg); err == nil {
		t.Error("missing trace files accepted")
	}
}

// TestEPT4KCostsMore: the fragmented-EPT regime must make virtualized
// walks strictly more expensive than 2MB EPT backing.
func TestEPT4KCostsMore(t *testing.T) {
	conv := func(ept4k bool) *Results {
		return runTiny(t, func(c *Config) {
			c.Org = OrgConventional
			c.EPT4K = ept4k
			c.Scale = 0.15
			c.MaxRefsPerCore = 40_000
			c.WarmupRefs = 8_000
			c.Mix = workload.Mix{ID: "g", VM1: workload.GUPS, VM2: workload.GUPS}
		})
	}
	huge := conv(false)
	frag := conv(true)
	if frag.WalkCyclesPerL2Miss <= huge.WalkCyclesPerL2Miss {
		t.Errorf("4K EPT walks (%v) not costlier than 2M EPT (%v)",
			frag.WalkCyclesPerL2Miss, huge.WalkCyclesPerL2Miss)
	}
}

// TestDIPTrainsOnRealTraffic: a DIP run must actually exercise the
// set-dueling machinery.
func TestDIPTrainsOnRealTraffic(t *testing.T) {
	cfg := tinyConfig()
	cfg.DIP = true
	sys := MustNew(cfg)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	d := sys.Mem().l3dip
	if d.MRULeaderMisses.Value() == 0 || d.BIPLeaderMisses.Value() == 0 {
		t.Errorf("DIP leaders saw no misses: %d/%d",
			d.MRULeaderMisses.Value(), d.BIPLeaderMisses.Value())
	}
}

// TestControllersSeeEpochs: dynamic runs must complete partition epochs on
// both cache levels.
func TestControllersSeeEpochs(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scheme = core.CriticalityDynamic
	cfg.EpochLen = 2_000
	sys := MustNew(cfg)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.Mem().l3ctl.Epoch() == 0 {
		t.Error("L3 controller never completed an epoch")
	}
	if sys.Mem().l2ctl[0].Epoch() == 0 {
		t.Error("L2 controller never completed an epoch")
	}
}

// TestWritebacksReachDRAM: dirty lines eventually leave the hierarchy as
// DRAM writes.
func TestWritebacksReachDRAM(t *testing.T) {
	cfg := tinyConfig()
	// Enough store-heavy footprint that dirty lines overflow the L3:
	// homogeneous gups touches far more distinct lines than the L3 holds.
	cfg.Mix = workload.Mix{ID: "g", VM1: workload.GUPS, VM2: workload.GUPS}
	cfg.Scale = 0.4
	cfg.MaxRefsPerCore = 120_000
	cfg.WarmupRefs = 10_000
	sys := MustNew(cfg)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.Mem().ddr.Stats.Writes.Value() == 0 {
		t.Error("no DRAM writes observed")
	}
}

// TestSharedL2TLB: the shared-L2-TLB ablation must actually share state —
// a translation installed via core 0 is visible to core 1's lookups.
func TestSharedL2TLB(t *testing.T) {
	cfg := tinyConfig()
	cfg.SharedL2TLB = true
	sys := MustNew(cfg)
	m := sys.Mem()
	if m.l2tlb[0] != m.l2tlb[1] {
		t.Fatal("SharedL2TLB did not share the structure")
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.IPCGeomean <= 0 {
		t.Error("shared-TLB run produced no work")
	}
}

// TestHugePagePOM: the native huge-page + POM configuration must resolve
// translations through 2 MB POM entries and sharply cut L2 TLB misses.
func TestHugePagePOM(t *testing.T) {
	small := runTiny(t, func(c *Config) { c.Virtualized = false })
	huge := runTiny(t, func(c *Config) { c.Virtualized = false; c.HugePages = true })
	if huge.L2TLBMPKI >= small.L2TLBMPKI {
		t.Errorf("huge pages did not reduce MPKI under POM: %v vs %v",
			huge.L2TLBMPKI, small.L2TLBMPKI)
	}
	if huge.PageWalks != 0 {
		t.Errorf("prewarmed huge-page POM run walked %d times", huge.PageWalks)
	}
}
