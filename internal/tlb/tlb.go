// Package tlb implements the translation caches of the simulated system:
// the per-core L1 and L2 TLBs (ASID-tagged, set-associative, per Table 2)
// and the POM-TLB — the very large part-of-memory L3 TLB of Ryoo et al.
// that CSALT is architected over. POM-TLB entries live at real simulated
// physical addresses in die-stacked DRAM, so they are cacheable in the L2
// and L3 data caches; pom.go exposes the line address of each set so the
// memory system can route those accesses.
package tlb

import (
	"fmt"

	"github.com/csalt-sim/csalt/internal/introspect"
	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/obs"
	"github.com/csalt-sim/csalt/internal/stats"
)

// Config sizes a TLB level.
type Config struct {
	Name    string
	Entries int
	Ways    int
	Latency uint64 // lookup latency in CPU cycles
}

// TLB is one set-associative, ASID-tagged translation lookaside buffer.
// A unified TLB holds entries of both page sizes; lookup probes both
// (4 KB first), as a unified L2 TLB does.
type TLB struct {
	cfg     Config
	sets    int
	ways    int
	setMask uint64
	fs      flatState // packed entry store (see flat.go)
	next    uint64
	ip      *introspect.Probe // nil unless an attribution plane is attached

	Accesses stats.HitRate
	// Lookups counts Lookup calls independently of the hit/miss split, so
	// the invariant layer can cross-check Hits+Misses == Lookups.
	Lookups stats.Counter
}

// New builds a TLB from cfg; entries must divide evenly into power-of-two
// sets.
func New(cfg Config) (*TLB, error) {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		return nil, fmt.Errorf("tlb %s: bad geometry %d entries / %d ways", cfg.Name, cfg.Entries, cfg.Ways)
	}
	sets := cfg.Entries / cfg.Ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("tlb %s: set count %d not a power of two", cfg.Name, sets)
	}
	t := &TLB{
		cfg:     cfg,
		sets:    sets,
		ways:    cfg.Ways,
		setMask: uint64(sets - 1),
		fs:      newFlatState(cfg.Entries),
	}
	return t, nil
}

// MustNew is New for static configurations.
func MustNew(cfg Config) *TLB {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the TLB's configured name.
func (t *TLB) Name() string { return t.cfg.Name }

// Sets returns the number of sets.
func (t *TLB) Sets() int { return t.sets }

// SetIntrospect attaches an attribution probe, keyed by the packed entry
// words.
func (t *TLB) SetIntrospect(p *introspect.Probe) { t.ip = p }

// introspectHit records a lookup hit at the matched page size.
func (t *TLB) introspectHit(v mem.VAddr, asid mem.ASID, size mem.PageSize) {
	if t.ip == nil {
		return
	}
	vpn := mem.PageNumber(v, size)
	t.ip.Hit(t.set(vpn), packKM(vpn, asid, size))
}

// introspectMiss records a lookup miss. Misses key at 4 KB granularity:
// the missing page's size is unknown at miss time, and each miss must
// carry exactly one cause.
func (t *TLB) introspectMiss(v mem.VAddr, asid mem.ASID) {
	if t.ip == nil {
		return
	}
	vpn := mem.PageNumber(v, mem.Page4K)
	t.ip.Miss(t.set(vpn), packKM(vpn, asid, mem.Page4K))
}

// Latency returns the lookup latency in cycles.
func (t *TLB) Latency() uint64 { return t.cfg.Latency }

// Entries returns the capacity.
func (t *TLB) Entries() int { return len(t.fs.km) }

// RegisterMetrics publishes the TLB's hit/miss counters into an
// observability group. Closures keep the reads live (see
// cpu.RegisterMetrics).
func (t *TLB) RegisterMetrics(g *obs.Group) {
	g.Counter("hits", func() uint64 { return t.Accesses.Hits.Value() })
	g.Counter("misses", func() uint64 { return t.Accesses.Misses.Value() })
	g.Gauge("hit_rate", func() float64 { return t.Accesses.Rate() })
}

func (t *TLB) set(vpn uint64) int { return int(vpn & t.setMask) }

// Lookup translates v for asid, probing 4 KB then 2 MB entries. It returns
// the page frame and the matched page size. A page size the TLB holds no
// entries of is not probed (the probe could only have missed).
func (t *TLB) Lookup(v mem.VAddr, asid mem.ASID) (mem.PAddr, mem.PageSize, bool) {
	t.Lookups.Inc()
	for _, size := range [...]mem.PageSize{mem.Page4K, mem.Page2M} {
		if t.fs.nBySize[size] == 0 {
			continue
		}
		vpn := mem.PageNumber(v, size)
		if frame, ok := t.fs.probe(packKM(vpn, asid, size), t.set(vpn)*t.ways, t.ways, &t.next); ok {
			t.Accesses.Hit()
			t.introspectHit(v, asid, size)
			return frame, size, true
		}
	}
	t.Accesses.Miss()
	t.introspectMiss(v, asid)
	return 0, 0, false
}

// Insert installs a translation, evicting the set's LRU entry if needed.
// Inserting an existing (asid, page) refreshes it.
func (t *TLB) Insert(v mem.VAddr, asid mem.ASID, frame mem.PAddr, size mem.PageSize) {
	vpn := mem.PageNumber(v, size)
	want := packKM(vpn, asid, size)
	evictKM, refreshed := t.fs.insert(want, frame, t.set(vpn)*t.ways, t.ways, &t.next)
	if t.ip == nil || refreshed {
		return
	}
	if evictKM != 0 {
		t.ip.Evict(t.set(vpn), evictKM, uint64(asid))
	}
	t.ip.Fill(t.set(vpn), want, uint64(asid))
}

// ResetStats zeroes the hit/miss/lookup counters together (warmup
// boundary), keeping the Lookups == Hits+Misses conservation intact.
func (t *TLB) ResetStats() {
	t.Accesses.Reset()
	t.Lookups = 0
}

// CheckConservation verifies Hits+Misses == Lookups, returning a detail
// string when broken ("" while the invariant holds).
func (t *TLB) CheckConservation() string {
	h, m, l := t.Accesses.Hits.Value(), t.Accesses.Misses.Value(), t.Lookups.Value()
	if h+m != l {
		return fmt.Sprintf("hits(%d)+misses(%d) != lookups(%d)", h, m, l)
	}
	return ""
}
