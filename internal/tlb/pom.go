package tlb

import (
	"fmt"

	"github.com/csalt-sim/csalt/internal/introspect"
	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/obs"
	"github.com/csalt-sim/csalt/internal/stats"
)

// POM is the part-of-memory L3 TLB (Ryoo et al., ISCA'17), the substrate
// CSALT is architected over: a large set-associative TLB occupying an
// explicit physical address range in die-stacked DRAM. Because it is
// memory-mapped, each set's 64-byte line can be cached in the L2/L3 data
// caches; the memory system classifies any address inside [Base,
// Base+Size) as a Translation access (§3.1).
//
// One 64-byte line holds one set of four 16-byte entries (tag + frame), so
// a lookup is a single memory access — the property that makes POM-TLB
// cheaper per miss than TSB's chained lookups (§5.2).
type POM struct {
	base     mem.PAddr
	sizeB    uint64
	sets     uint64
	ways     int
	fw       []uint64 // packed one-line-per-set layout (see flat.go)
	nBySize  [2]int   // valid entries per page size
	hashSeed uint64

	// tr receives fill/evict events; nil keeps the insert path silent.
	tr *obs.Tracer
	// ip receives attribution hooks; nil unless a plane is attached.
	ip *introspect.Probe

	Accesses stats.HitRate
	Inserts  stats.Counter
	// Lookups counts Lookup/LookupAnySize calls independently of the
	// hit/miss split, for the invariant layer's conservation cross-check.
	Lookups stats.Counter
}

// SetTrace attaches an event tracer; nil detaches.
func (p *POM) SetTrace(t *obs.Tracer) { p.tr = t }

// Sets returns the number of sets (lines).
func (p *POM) Sets() int { return int(p.sets) }

// SetIntrospect attaches an attribution probe, keyed by the packed entry
// words (rank bits cleared).
func (p *POM) SetIntrospect(pr *introspect.Probe) { p.ip = pr }

// introspectLookup records one probe outcome. Misses are keyed at 4 KB
// (the size probed first and missed last), mirroring the TLB convention.
func (p *POM) introspectLookup(v mem.VAddr, asid mem.ASID, size mem.PageSize, hit bool) {
	if p.ip == nil {
		return
	}
	vpn := mem.PageNumber(v, size)
	set := int(p.setOf(vpn, asid, size))
	key := packPOM(vpn, asid, size)
	if hit {
		p.ip.Hit(set, key)
	} else {
		p.ip.Miss(set, key)
	}
}

// RegisterMetrics publishes the POM-TLB's counters into an observability
// group. Closures keep the reads live (see cpu.RegisterMetrics).
func (p *POM) RegisterMetrics(g *obs.Group) {
	g.Counter("hits", func() uint64 { return p.Accesses.Hits.Value() })
	g.Counter("misses", func() uint64 { return p.Accesses.Misses.Value() })
	g.Counter("inserts", func() uint64 { return p.Inserts.Value() })
	g.Gauge("hit_rate", func() float64 { return p.Accesses.Rate() })
	g.Gauge("utilization", p.Utilization)
}

// EntriesPerLine is the POM-TLB's set associativity: four 16-byte entries
// per 64-byte line.
const EntriesPerLine = 4

// NewPOM builds a POM-TLB of sizeBytes at physical address base. Size must
// be a power of two of at least one line.
func NewPOM(base mem.PAddr, sizeBytes uint64) (*POM, error) {
	if sizeBytes < mem.LineSize || sizeBytes&(sizeBytes-1) != 0 {
		return nil, fmt.Errorf("tlb: POM size %d must be a power-of-two >= %d", sizeBytes, mem.LineSize)
	}
	if uint64(base)%mem.LineSize != 0 {
		return nil, fmt.Errorf("tlb: POM base %#x not line aligned", base)
	}
	sets := sizeBytes / mem.LineSize
	return &POM{
		base:     base,
		sizeB:    sizeBytes,
		sets:     sets,
		ways:     EntriesPerLine,
		fw:       make([]uint64, int(sets)*pomSetStride),
		hashSeed: 0x9E3779B97F4A7C15,
	}, nil
}

// MustNewPOM is NewPOM for static configurations.
func MustNewPOM(base mem.PAddr, sizeBytes uint64) *POM {
	p, err := NewPOM(base, sizeBytes)
	if err != nil {
		panic(err)
	}
	return p
}

// Base returns the POM-TLB's base physical address.
func (p *POM) Base() mem.PAddr { return p.base }

// Size returns the POM-TLB's size in bytes.
func (p *POM) Size() uint64 { return p.sizeB }

// Contains reports whether a physical address falls inside the POM-TLB
// region — the §3.1 data/TLB classification test.
func (p *POM) Contains(a mem.PAddr) bool {
	return a >= p.base && a < p.base+mem.PAddr(p.sizeB)
}

// setOf hashes (vpn, asid, size) to a set index. Mixing the ASID and the
// page size into the hash spreads the contexts' entries across the whole
// structure, and keeps the 4 KB and 2 MB entries for overlapping regions
// in distinct sets.
func (p *POM) setOf(vpn uint64, asid mem.ASID, size mem.PageSize) uint64 {
	z := vpn ^ (uint64(asid) << 40) ^ (uint64(size) << 56) ^ p.hashSeed
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return (z ^ (z >> 31)) & (p.sets - 1)
}

// LineAddr returns the physical address of the cacheable line holding the
// 4 KB-entry set for (v, asid). The memory system fetches this line through
// the data caches before Lookup consults the tags.
func (p *POM) LineAddr(v mem.VAddr, asid mem.ASID) mem.PAddr {
	return p.LineAddrSized(v, asid, mem.Page4K)
}

// LineAddrSized is LineAddr for an explicit page size; huge-page entries
// live in their own sets (the POM-TLB paper keeps per-size structures).
func (p *POM) LineAddrSized(v mem.VAddr, asid mem.ASID, size mem.PageSize) mem.PAddr {
	set := p.setOf(mem.PageNumber(v, size), asid, size)
	return p.base + mem.PAddr(set*mem.LineSize)
}

// probe searches one size's set for (v, asid), promoting a hit to MRU.
func (p *POM) probe(v mem.VAddr, asid mem.ASID, size mem.PageSize) (mem.PAddr, bool) {
	if p.nBySize[size&1] == 0 {
		return 0, false
	}
	vpn := mem.PageNumber(v, size)
	want := packPOM(vpn, asid, size)
	base := int(p.setOf(vpn, asid, size)) * pomSetStride
	kms := p.fw[base : base+EntriesPerLine]
	for w := range kms {
		if kms[w]&^pomRankMask == want {
			pomTouch(kms, w)
			return mem.PAddr(p.fw[base+EntriesPerLine+w]), true
		}
	}
	return 0, false
}

// Lookup checks for a 4 KB translation of (v, asid); most deployments
// (virtualized, 4 KB-granular host frames) only use this probe.
func (p *POM) Lookup(v mem.VAddr, asid mem.ASID) (mem.PAddr, bool) {
	p.Lookups.Inc()
	if frame, ok := p.probe(v, asid, mem.Page4K); ok {
		p.Accesses.Hit()
		p.introspectLookup(v, asid, mem.Page4K, true)
		return frame, true
	}
	p.Accesses.Miss()
	p.introspectLookup(v, asid, mem.Page4K, false)
	return 0, false
}

// LookupAnySize probes 4 KB then 2 MB entries, returning the matched size.
// Native huge-page systems use it; the second probe costs a second line
// fetch, which the caller charges via LineAddrSized.
func (p *POM) LookupAnySize(v mem.VAddr, asid mem.ASID) (mem.PAddr, mem.PageSize, bool) {
	p.Lookups.Inc()
	if frame, ok := p.probe(v, asid, mem.Page4K); ok {
		p.Accesses.Hit()
		p.introspectLookup(v, asid, mem.Page4K, true)
		return frame, mem.Page4K, true
	}
	if frame, ok := p.probe(v, asid, mem.Page2M); ok {
		p.Accesses.Hit()
		p.introspectLookup(v, asid, mem.Page2M, true)
		return frame, mem.Page2M, true
	}
	p.Accesses.Miss()
	p.introspectLookup(v, asid, mem.Page4K, false)
	return 0, 0, false
}

// Insert installs a 4 KB translation into its set, LRU-evicting on
// conflict. The caller is responsible for the corresponding dirty-line
// write into the cache hierarchy (the POM line was modified).
func (p *POM) Insert(v mem.VAddr, asid mem.ASID, frame mem.PAddr) {
	p.InsertSizedAt(0, v, asid, frame, mem.Page4K)
}

// InsertAt is Insert stamped with the fill's completion cycle, which the
// tracer records on the fill (and any evict) event.
func (p *POM) InsertAt(now uint64, v mem.VAddr, asid mem.ASID, frame mem.PAddr) {
	p.InsertSizedAt(now, v, asid, frame, mem.Page4K)
}

// InsertSized installs a translation of an explicit page size.
func (p *POM) InsertSized(v mem.VAddr, asid mem.ASID, frame mem.PAddr, size mem.PageSize) {
	p.InsertSizedAt(0, v, asid, frame, size)
}

// InsertSizedAt installs a translation of an explicit page size, stamping
// any trace events with the given cycle. A refresh of an existing entry is
// not a fill; an evict event fires only when a valid entry for a different
// page is displaced.
func (p *POM) InsertSizedAt(now uint64, v mem.VAddr, asid mem.ASID, frame mem.PAddr, size mem.PageSize) {
	vpn := mem.PageNumber(v, size)
	want := packPOM(vpn, asid, size)
	base := int(p.setOf(vpn, asid, size)) * pomSetStride
	kms := p.fw[base : base+EntriesPerLine]
	victim := 0
	for w := range kms {
		if kms[w]&^pomRankMask == want {
			// Refresh: update the frame and recency; no counters, no events.
			p.fw[base+EntriesPerLine+w] = uint64(frame)
			pomTouch(kms, w)
			return
		}
		if kms[w]&pomValid == 0 {
			victim = w
			break
		}
		// All ways valid so far: remember the LRU (rank-0) way.
		if kms[w]&pomRankMask == 0 {
			victim = w
		}
	}
	if ev := kms[victim]; ev&pomValid != 0 {
		p.tr.POMEvict(now, (ev>>pomASIDSh)&0xFFFF, ev>>pomVPNSh)
		p.nBySize[(ev>>pomSizeSh)&1]--
		if p.ip != nil {
			p.ip.Evict(base/pomSetStride, ev&^pomRankMask, uint64(asid))
		}
	}
	kms[victim] = want
	p.fw[base+EntriesPerLine+victim] = uint64(frame)
	pomTouch(kms, victim)
	p.nBySize[size&1]++
	p.Inserts.Inc()
	p.tr.POMFill(now, uint64(asid), vpn)
	if p.ip != nil {
		p.ip.Fill(base/pomSetStride, want, uint64(asid))
	}
}

// ResetStats zeroes the hit/miss/insert/lookup counters together (warmup
// boundary), keeping the Lookups == Hits+Misses conservation intact.
func (p *POM) ResetStats() {
	p.Accesses.Reset()
	p.Inserts = 0
	p.Lookups = 0
}

// CheckConservation verifies Hits+Misses == Lookups, returning a detail
// string when broken ("" while the invariant holds).
func (p *POM) CheckConservation() string {
	h, m, l := p.Accesses.Hits.Value(), p.Accesses.Misses.Value(), p.Lookups.Value()
	if h+m != l {
		return fmt.Sprintf("hits(%d)+misses(%d) != lookups(%d)", h, m, l)
	}
	return ""
}

// Utilization returns the fraction of POM entries currently valid.
func (p *POM) Utilization() float64 {
	valid := p.nBySize[0] + p.nBySize[1]
	return float64(valid) / float64(int(p.sets)*p.ways)
}
