// Package workload provides deterministic synthetic memory-reference
// generators that stand in for the paper's Pin-collected traces of PARSEC
// and graph benchmarks (§4.1). Each generator reproduces the properties
// that drive the paper's phenomena: total footprint, the size and drift of
// the hot page working set (which sets TLB behaviour with and without
// context switches), line-level locality (which sets L1D filtering and thus
// how much data traffic reaches L2/L3), phase structure (connectedcomponent,
// Fig. 9) and memory intensity (non-memory gap).
package workload

import (
	"fmt"
	"sort"

	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/trace"
)

// Name identifies one of the paper's benchmarks.
type Name string

// The six benchmarks of §4.1.
const (
	Canneal       Name = "canneal"
	CComp         Name = "connectedcomponent"
	Graph500      Name = "graph500"
	GUPS          Name = "gups"
	PageRank      Name = "pagerank"
	StreamCluster Name = "streamcluster"
)

// All lists every benchmark name in a stable order.
func All() []Name {
	return []Name{Canneal, CComp, Graph500, GUPS, PageRank, StreamCluster}
}

// Params positions one software thread's generator inside its VM's address
// space.
type Params struct {
	ASID  mem.ASID  // the VM's address-space identifier
	Base  mem.VAddr // base of this thread's private region
	Seed  uint64    // PRNG seed; distinct per thread
	Scale float64   // footprint multiplier; 1.0 = the defaults below
}

// scaled returns n scaled by p.Scale (min 1).
func (p Params) scaled(n uint64) uint64 {
	if p.Scale <= 0 {
		return n
	}
	s := uint64(float64(n) * p.Scale)
	if s == 0 {
		s = 1
	}
	return s
}

// Tuning captures the tunable behaviour of one benchmark's generator.
// The built-in values were calibrated against the paper's reported shapes:
// L2 TLB MPKI ratios under context switching (Fig. 1), native-vs-virtualized
// walk cost (Table 1), and cache occupancy of translation entries (Fig. 3).
type Tuning struct {
	PagesTotal uint64  // private footprint, in 4K pages
	HotPages   uint64  // drifting hot-window size, in pages
	PHot       float64 // probability a visit targets the hot window
	// Hot2Pages/PHot2 add a second, larger warm tier: ranks
	// [HotPages, HotPages+Hot2Pages) visited with probability PHot2. The
	// small tier sits at TLB scale (it fits when a workload runs alone and
	// thrashes under context switching — Fig. 1); the warm tier's
	// translation entries form the large POM-line working set the caches
	// fight over (Fig. 3, CSALT's opportunity).
	Hot2Pages uint64
	PHot2     float64
	// WarmBurst clusters warm-tier visits: each chosen warm page receives
	// this many consecutive warm visits before a new one is drawn
	// (default 1 = no clustering). Clustering lets the L1/L2 TLBs absorb
	// most warm accesses while the warm page SET stays huge — high TLB
	// reach pressure without proportional miss flux.
	WarmBurst     int
	DriftPeriod   uint64  // visits between one-page advances of the window
	PagesPerVisit int     // distinct pages chased per visit (default 1)
	LinesPerVisit int     // distinct lines touched per page
	RefsPerLine   int     // consecutive 8-byte references per line
	StoreFrac     float64 // fraction of references that are stores
	MeanGap       float64 // mean non-memory instructions between references
	SeqRunLines   int     // >0: visits advance sequentially for this many lines
	Phased        bool    // connectedcomponent-style phase alternation
	PhaseLen      uint64  // visits per local (propagate) phase
	PhaseGlobal   uint64  // visits per global (scatter) phase
	HotScatter    bool    // hot pages scattered across the footprint rather
	// than contiguous — spreads the 2MB regions the PDE caches must cover,
	// the behaviour that makes connectedcomponent's walks so expensive
	// (Table 1)

	// VASpread (default 1 = dense) multiplies the virtual-address stride
	// between consecutive footprint pages, modelling fragmented heaps
	// whose live pages are sparse in VA space. Sparse pages share neither
	// leaf-PTE cache lines nor PDE regions, so page-table entries lose the
	// 8-translations-per-line density advantage they have over POM-TLB
	// lines — the regime the paper's large-footprint workloads live in.
	VASpread uint64

	// ZipfExp, when positive, replaces the two-level hot/uniform page
	// choice with a Zipf-like popularity ranking over the whole footprint:
	// a visit targets rank floor(N*u^ZipfExp) for uniform u. Higher
	// exponents concentrate accesses on the head (which fits the TLBs when
	// a workload runs alone) while keeping a heavy warm tail (whose
	// translation entries are the protectable POM-line working set).
	// Graph workloads' power-law vertex degrees produce exactly this page
	// popularity shape.
	ZipfExp float64

	// RandomLine makes each page revisit touch a different random line
	// (graph/pointer workloads touch a different neighbour each time), so
	// data lines have little reuse while the page's translation is reused
	// on every visit — the asymmetry that lets translation entries earn a
	// large share of the data caches (Fig. 3) and makes protecting them
	// profitable (CSALT). When false, visits touch a fixed page "object"
	// (streaming/record-oriented access with line reuse).
	RandomLine bool
}

// profiles holds the per-benchmark calibration. Footprints are per thread;
// with 8 threads per VM the totals land in the multi-hundred-MB range the
// paper's "large footprint" workloads occupy, scaled to simulator run
// lengths. The hot windows are sized against the 1536-entry L2 TLB: one
// context's hot set mostly fits, two contexts' do not — which is exactly
// the mechanism behind the paper's >6x context-switch MPKI blow-up.
//
// The table is read-only: a run's Config names its benchmarks but does not
// carry their tuning, so changing it at run time would silently invalidate
// memo and checkpoint keys.
var profiles = map[Name]Tuning{
	// gups: uniform random updates over a huge sparse table; almost no
	// locality, so its TLB MPKI is enormous even without context switches
	// (low Fig. 1 ratio), its translation entries have little reuse to
	// protect (modest CSALT gain, per Fig. 7), and the conventional
	// baseline drowns in walks.
	GUPS: {
		PagesTotal: 49152, VASpread: 16, HotPages: 320, PHot: 0.20,
		Hot2Pages: 2000, PHot2: 0.12, DriftPeriod: 24,
		LinesPerVisit: 1, RefsPerLine: 2, StoreFrac: 0.45, MeanGap: 2.5,
		RandomLine: true, HotScatter: true,
	},
	// canneal: pointer-chasing over a fragmented netlist. The small hot
	// tier sits at L2-TLB scale (the Fig. 1 context-switch cliff); the
	// warm element tier's translation entries are the cache-resident
	// POM-line working set CSALT manages.
	Canneal: {
		PagesTotal: 32768, VASpread: 64, HotPages: 1200, PHot: 0.55,
		Hot2Pages: 4500, PHot2: 0.40, DriftPeriod: 40,
		LinesPerVisit: 3, RefsPerLine: 2, StoreFrac: 0.25, MeanGap: 2.0,
		RandomLine: true, HotScatter: true,
	},
	// connectedcomponent: label propagation over a huge scattered vertex
	// set, alternating a long propagate phase with a short global
	// active-list rebuild (the paper's §5.1 deep-dive; its worst-case
	// translation behaviour and biggest CSALT winner). The warm tier is
	// the largest in the suite — big enough that shared LRU starves its
	// translation entries, which is precisely what CSALT repairs.
	CComp: {
		PagesTotal: 98304, VASpread: 64, HotPages: 1200, PHot: 0.50,
		Hot2Pages: 12000, PHot2: 0.45, DriftPeriod: 30,
		LinesPerVisit: 3, RefsPerLine: 2, StoreFrac: 0.30, MeanGap: 2.0,
		Phased: true, PhaseLen: 6000, PhaseGlobal: 2000,
		RandomLine: true, HotScatter: true,
	},
	// graph500: BFS — sequential frontier scans punctuated by random
	// neighbour expansion; mild visit clustering from frontier locality.
	Graph500: {
		PagesTotal: 32768, VASpread: 32, HotPages: 1100, PHot: 0.48,
		Hot2Pages: 4000, PHot2: 0.34, WarmBurst: 2, DriftPeriod: 30,
		LinesPerVisit: 2, RefsPerLine: 2, StoreFrac: 0.20, MeanGap: 2.5,
		SeqRunLines: 24, RandomLine: true, HotScatter: true,
	},
	// pagerank: sequential edge scans with clustered random rank-vector
	// gathers — strong page bursts, so its TLB behaviour is dominated by
	// the context-switch cliff (high Fig. 1 ratio).
	PageRank: {
		PagesTotal: 32768, VASpread: 32, HotPages: 1250, PHot: 0.52,
		Hot2Pages: 4500, PHot2: 0.30, WarmBurst: 4, DriftPeriod: 35,
		LinesPerVisit: 2, RefsPerLine: 2, StoreFrac: 0.22, MeanGap: 2.5,
		SeqRunLines: 16, RandomLine: true, HotScatter: true,
	},
	// streamcluster: dense streaming over a modest working set; low TLB
	// pressure and nearly identical native/virtualized walk cost (Table 1).
	StreamCluster: {
		PagesTotal: 8192, HotPages: 192, PHot: 0.97, DriftPeriod: 64,
		LinesPerVisit: 4, RefsPerLine: 6, StoreFrac: 0.15, MeanGap: 6.0,
		SeqRunLines: 256,
	},
}

// GetTuning returns a benchmark's generator calibration.
func GetTuning(n Name) (Tuning, error) {
	t, ok := profiles[n]
	if !ok {
		return Tuning{}, fmt.Errorf("workload: unknown benchmark %q", n)
	}
	return t, nil
}

// New constructs the generator for benchmark n as an endless trace.Source.
// The generator copies its calibration at construction and owns all of its
// state, so distinct generators may run on distinct goroutines freely.
func New(n Name, p Params) (trace.Source, error) {
	prof, err := GetTuning(n)
	if err != nil {
		return nil, err
	}
	return newVisitGen(prof, p), nil
}

// MustNew is New for callers with static benchmark names (tests, examples).
func MustNew(n Name, p Params) trace.Source {
	src, err := New(n, p)
	if err != nil {
		panic(err)
	}
	return src
}

// Names returns the sorted list of benchmark names as strings (CLI help).
func Names() []string {
	out := make([]string, 0, len(profiles))
	for n := range profiles {
		out = append(out, string(n))
	}
	sort.Strings(out)
	return out
}

// Parse converts a string to a benchmark Name, accepting the paper's
// abbreviations ("ccomp", "stream", "strcls").
func Parse(s string) (Name, error) {
	switch s {
	case "canneal":
		return Canneal, nil
	case "connectedcomponent", "ccomp", "ccomponent":
		return CComp, nil
	case "graph500":
		return Graph500, nil
	case "gups":
		return GUPS, nil
	case "pagerank", "page":
		return PageRank, nil
	case "streamcluster", "stream", "strcls":
		return StreamCluster, nil
	}
	return "", fmt.Errorf("workload: unknown benchmark %q (known: %v)", s, Names())
}
