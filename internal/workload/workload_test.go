package workload

import (
	"testing"
	"testing/quick"

	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/trace"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(42).Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGUint64nRange(t *testing.T) {
	f := func(seed uint64, nRaw uint32) bool {
		n := uint64(nRaw%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			if r.Uint64n(n) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGUint64nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRNG(1).Uint64n(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGGeometricMean(t *testing.T) {
	r := NewRNG(11)
	const mean, n = 4.0, 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(mean))
	}
	got := sum / n
	if got < mean*0.9 || got > mean*1.1 {
		t.Errorf("Geometric(%v) sample mean = %v, want within 10%%", mean, got)
	}
	if g := r.Geometric(0); g != 0 {
		t.Errorf("Geometric(0) = %d, want 0", g)
	}
}

func TestNewUnknownBenchmark(t *testing.T) {
	if _, err := New("nosuch", Params{}); err == nil {
		t.Error("expected error for unknown benchmark")
	}
	if _, err := GetTuning("nosuch"); err == nil {
		t.Error("expected error for unknown tuning")
	}
}

func TestParse(t *testing.T) {
	for in, want := range map[string]Name{
		"ccomp":   CComp,
		"strcls":  StreamCluster,
		"gups":    GUPS,
		"canneal": Canneal,
	} {
		got, err := Parse(in)
		if err != nil || got != want {
			t.Errorf("Parse(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Error("expected error for bogus name")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p := Params{ASID: 3, Base: 0x1000000000, Seed: 99, Scale: 0.1}
	a := MustNew(GUPS, p)
	b := MustNew(GUPS, p)
	for i := 0; i < 5000; i++ {
		ra, _ := a.Next()
		rb, _ := b.Next()
		if ra != rb {
			t.Fatalf("generator diverged at record %d: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestGeneratorAddressesInBounds(t *testing.T) {
	for _, name := range All() {
		p := Params{ASID: 1, Base: 0x2000000000, Seed: 5, Scale: 0.1}
		src := MustNew(name, p)
		tn, err := GetTuning(name)
		if err != nil {
			t.Fatal(err)
		}
		spread := tn.VASpread
		if spread == 0 {
			spread = 1
		}
		scaledPages := p.scaled(tn.PagesTotal)
		limit := p.Base + mem.VAddr((scaledPages*spread+localRegionPages)*mem.PageSize4K)
		for i := 0; i < 20000; i++ {
			r, ok := src.Next()
			if !ok {
				t.Fatalf("%s: generator ended", name)
			}
			if r.Addr < p.Base || r.Addr >= limit {
				t.Fatalf("%s: address %#x outside [%#x, %#x)", name, r.Addr, p.Base, limit)
			}
			if r.ASID != 1 {
				t.Fatalf("%s: ASID = %d, want 1", name, r.ASID)
			}
		}
	}
}

func TestGeneratorMixesLoadsAndStores(t *testing.T) {
	for _, name := range All() {
		src := MustNew(name, Params{Seed: 8, Scale: 0.1})
		var loads, stores int
		for i := 0; i < 20000; i++ {
			r, _ := src.Next()
			if r.Kind == trace.Store {
				stores++
			} else {
				loads++
			}
		}
		if loads == 0 || stores == 0 {
			t.Errorf("%s: loads=%d stores=%d, want both nonzero", name, loads, stores)
		}
		if stores > loads {
			t.Errorf("%s: more stores (%d) than loads (%d)", name, stores, loads)
		}
	}
}

// countPages returns the number of distinct 4K pages touched by n records.
func countPages(src trace.Source, n int) int {
	pages := map[uint64]bool{}
	for i := 0; i < n; i++ {
		r, _ := src.Next()
		pages[mem.PageNumber(r.Addr, mem.Page4K)] = true
	}
	return len(pages)
}

func TestFootprintOrdering(t *testing.T) {
	// gups touches far more distinct pages than streamcluster over the
	// same reference count — the essential difference that drives every
	// TLB result in the paper.
	const n = 60000
	gups := countPages(MustNew(GUPS, Params{Seed: 1, Scale: 1}), n)
	stream := countPages(MustNew(StreamCluster, Params{Seed: 1, Scale: 1}), n)
	if gups < 3*stream {
		t.Errorf("page working sets: gups=%d streamcluster=%d, want gups >= 3x", gups, stream)
	}
}

func TestPhasedBenchmarkAlternates(t *testing.T) {
	src := MustNew(CComp, Params{Seed: 2, Scale: 1}).(*visitGen)
	sawLocal, sawGlobal := false, false
	for i := 0; i < 2_000_000 && !(sawLocal && sawGlobal); i++ {
		src.Next()
		if src.inGlobalPhase() {
			sawGlobal = true
		} else {
			sawLocal = true
		}
	}
	if !sawLocal || !sawGlobal {
		t.Errorf("phases never alternated: local=%v global=%v", sawLocal, sawGlobal)
	}
}

func TestScaleShrinksFootprint(t *testing.T) {
	const n = 50000
	big := countPages(MustNew(GUPS, Params{Seed: 3, Scale: 1}), n)
	small := countPages(MustNew(GUPS, Params{Seed: 3, Scale: 0.05}), n)
	if small >= big {
		t.Errorf("scale 0.05 touched %d pages, scale 1 touched %d; want fewer", small, big)
	}
}

// TestFootprintBytes: a generator's footprint is its calibrated page count
// at scale 1, and shrinks with the footprint scale.
func TestFootprintBytes(t *testing.T) {
	full := MustNew(GUPS, Params{Seed: 1, Scale: 1}).(*visitGen)
	if b := full.pages * mem.PageSize4K; b != 49152*mem.PageSize4K {
		t.Errorf("gups footprint at scale 1 = %d bytes", b)
	}
	quarter := MustNew(GUPS, Params{Seed: 1, Scale: 0.25}).(*visitGen)
	if quarter.pages != 49152/4 {
		t.Errorf("gups footprint at scale 0.25 = %d pages", quarter.pages)
	}
}

func TestMixes(t *testing.T) {
	ms := Mixes()
	if len(ms) != 10 {
		t.Fatalf("len(Mixes) = %d, want 10", len(ms))
	}
	ids := map[string]bool{}
	for _, m := range ms {
		if ids[m.ID] {
			t.Errorf("duplicate mix id %q", m.ID)
		}
		ids[m.ID] = true
		if m.VM1 == "" || m.VM2 == "" {
			t.Errorf("mix %q has empty member", m.ID)
		}
	}
	m, err := MixByID("graph500_gups")
	if err != nil || m.VM1 != Graph500 || m.VM2 != GUPS {
		t.Errorf("MixByID = %+v, %v", m, err)
	}
	if _, err := MixByID("zzz"); err == nil {
		t.Error("expected error for unknown mix")
	}
	if len(Singles()) != 6 {
		t.Errorf("Singles = %d entries, want 6", len(Singles()))
	}
}

func TestAllNamesHaveProfiles(t *testing.T) {
	for _, n := range All() {
		if _, err := GetTuning(n); err != nil {
			t.Errorf("benchmark %q missing tuning: %v", n, err)
		}
		if _, err := New(n, Params{}); err != nil {
			t.Errorf("benchmark %q cannot be constructed: %v", n, err)
		}
	}
	if len(Names()) != len(All()) {
		t.Errorf("Names() = %d entries, want %d", len(Names()), len(All()))
	}
}

func TestVASpreadSparsity(t *testing.T) {
	// Pages of a spread generator never share a leaf-PTE line: consecutive
	// footprint pages sit at least VASpread/2 VA pages apart.
	tn, err := GetTuning(Canneal)
	if err != nil {
		t.Fatal(err)
	}
	if tn.VASpread < 16 {
		t.Skip("canneal no longer VA-spread")
	}
	src := MustNew(Canneal, Params{Seed: 3, Scale: 0.1}).(*visitGen)
	for p := uint64(0); p+1 < src.pages; p++ {
		a, b := src.vaPage(p), src.vaPage(p+1)
		if b <= a {
			t.Fatalf("vaPage not monotone at %d: %d then %d", p, a, b)
		}
		// Each page stays inside its own spread-sized arena (jitter never
		// collides two pages, and the average density is 1/VASpread).
		if a < p*tn.VASpread || a >= (p+1)*tn.VASpread {
			t.Fatalf("page %d placed at %d, outside its arena [%d, %d)",
				p, a, p*tn.VASpread, (p+1)*tn.VASpread)
		}
	}
}

func TestWarmBurstClusters(t *testing.T) {
	tn, _ := GetTuning(Canneal)
	tn.WarmBurst = 8
	tn.PHot = 0    // disable the hot tier
	tn.PHot2 = 1.0 // all visits go to the warm tier
	tn.SeqRunLines = 0
	src := newVisitGen(tn, Params{Seed: 9, Scale: 0.1})
	// Count distinct pages over a run: bursts of 8 should cut the distinct
	// page rate by ~8x vs the per-visit page count.
	pages := map[uint64]bool{}
	visits := 0
	lastPage := uint64(1 << 62)
	for i := 0; i < 30000; i++ {
		r, _ := src.Next()
		pg := mem.PageNumber(r.Addr, mem.Page4K)
		if pg != lastPage {
			lastPage = pg
			visits++
			pages[pg] = true
		}
	}
	// With bursts, page CHANGES happen but distinct new pages repeat in
	// runs; the ratio of distinct pages to page-changes must be well below
	// 1 compared to burstless behaviour. A loose bound suffices.
	if len(pages) > visits {
		t.Fatalf("distinct pages %d > page changes %d", len(pages), visits)
	}
}

func TestTwoTierDistribution(t *testing.T) {
	// The hot tier must receive roughly PHot of the data visits and the
	// warm tier roughly PHot2, measured by page-rank membership.
	tn, _ := GetTuning(Canneal)
	src := MustNew(Canneal, Params{Seed: 11, Scale: 1}).(*visitGen)
	// Build the inverse of hotPage over the tiers.
	hotSet := map[uint64]bool{}
	for i := uint64(0); i < src.hot; i++ {
		hotSet[src.hotPage(i)] = true
	}
	warmSet := map[uint64]bool{}
	for i := uint64(0); i < src.hot2; i++ {
		warmSet[src.hotPage(src.hot+i)] = true
	}
	var hot, warm, other int
	localBasePage := mem.PageNumber(src.localBase, mem.Page4K)
	for i := 0; i < 120000; i++ {
		r, _ := src.Next()
		pg := mem.PageNumber(r.Addr, mem.Page4K)
		if pg >= localBasePage {
			continue // local-region reference
		}
		// Invert vaPage: page index = vaPage / spread.
		idx := pg - mem.PageNumber(mem.VAddr(src.p.Base), mem.Page4K)
		idx /= tn.VASpread
		switch {
		case hotSet[idx]:
			hot++
		case warmSet[idx]:
			warm++
		default:
			other++
		}
	}
	total := float64(hot + warm + other)
	hotFrac, warmFrac := float64(hot)/total, float64(warm)/total
	if hotFrac < tn.PHot-0.1 || hotFrac > tn.PHot+0.1 {
		t.Errorf("hot-tier fraction = %.2f, want ~%.2f", hotFrac, tn.PHot)
	}
	if warmFrac < tn.PHot2-0.1 || warmFrac > tn.PHot2+0.1 {
		t.Errorf("warm-tier fraction = %.2f, want ~%.2f", warmFrac, tn.PHot2)
	}
}
