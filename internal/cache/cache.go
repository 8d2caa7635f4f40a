// Package cache implements the set-associative data caches of the simulated
// system, with the two features CSALT builds on:
//
//   - every line is classified as a data line or a translation (TLB) line,
//     by address range, exactly as the paper's cache controller classifies
//     incoming addresses against the memory-mapped POM-TLB region (§3.1
//     "Classifying Addresses as Data or TLB");
//   - victim selection can be restricted to a contiguous way range, which
//     is how a partition of N data ways / K−N TLB ways is enforced: lookup
//     always scans all K ways, but a miss of a given type only evicts
//     within that type's way range (§3.1 "Cache Replacement").
//
// The package also provides Mattson stack-distance profilers (profiler.go)
// and the three replacement policies the paper discusses (repl.go): true
// LRU, NRU, and binary-tree pseudo-LRU.
package cache

import (
	"fmt"
	"math/bits"

	"github.com/csalt-sim/csalt/internal/introspect"
	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/obs"
	"github.com/csalt-sim/csalt/internal/stats"
)

// LineType classifies cache contents. Translation lines are POM-TLB lines
// (or page-table lines when CSALT is architected over conventional walks).
type LineType uint8

// Line types.
const (
	Data LineType = iota
	Translation
	numLineTypes
)

// String returns "data" or "tlb".
func (t LineType) String() string {
	if t == Translation {
		return "tlb"
	}
	return "data"
}

// Unpartitioned disables way partitioning (the POM-TLB baseline and the
// conventional system).
const Unpartitioned = -1

// Writeback describes a dirty line evicted by a fill; the caller routes it
// to the next level.
type Writeback struct {
	Addr  mem.PAddr
	Typ   LineType
	Valid bool
}

// Config sizes a cache.
type Config struct {
	Name     string
	SizeKB   int
	Ways     int
	Latency  uint64 // access latency in CPU cycles
	Policy   PolicyKind
	Profiled bool // attach stack-distance profilers (CSALT-managed caches)
	// InlineProfiler selects the §3.4 estimate-fed profiler instead of
	// auxiliary tag directories. Only meaningful with Profiled.
	InlineProfiler bool
	// ProfilerSampleShift: profile every 2^n-th set (0 = every set).
	ProfilerSampleShift uint
}

// Stats aggregates a cache's counters, split by line type.
type Stats struct {
	ByType     [numLineTypes]stats.HitRate
	Insertions [numLineTypes]stats.Counter
	Writebacks stats.Counter
	// Lookups counts Lookup calls independently of the per-type hit/miss
	// split, for the invariant layer's conservation cross-check.
	Lookups stats.Counter
}

// Accesses returns total accesses across both types.
func (s *Stats) Accesses() uint64 {
	return s.ByType[Data].Accesses() + s.ByType[Translation].Accesses()
}

// Misses returns total misses across both types.
func (s *Stats) Misses() uint64 {
	return s.ByType[Data].Misses.Value() + s.ByType[Translation].Misses.Value()
}

// Cache is a single set-associative cache level.
type Cache struct {
	cfg      Config
	sets     int
	ways     int
	setShift uint
	// words holds one packed metadata word per line (see flat.go), sets*ways
	// row-major. The simulator stores no data bytes.
	words  []uint64
	policy Policy
	lru    *trueLRU // concrete policy when PolicyLRU, for devirtualized paths

	// partition is the number of ways reserved for data lines in each set;
	// Unpartitioned disables enforcement.
	partition int

	profiler *Profiler // nil unless cfg.Profiled

	ip *introspect.Probe // nil unless an attribution plane is attached

	// absenceBroken records the first FillMissed call whose absence proof
	// was false; only the invariants build checks (see absence_on.go), and
	// CheckStructure reports it.
	absenceBroken string

	Stats Stats
}

// New builds a cache from cfg. Sets are derived from size, ways and the
// 64-byte line size; the set count must come out a power of two.
func New(cfg Config) (*Cache, error) {
	if cfg.Ways <= 0 || cfg.SizeKB <= 0 {
		return nil, fmt.Errorf("cache %s: ways and size must be positive", cfg.Name)
	}
	linesTotal := cfg.SizeKB * 1024 / mem.LineSize
	if linesTotal%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache %s: %d lines not divisible by %d ways", cfg.Name, linesTotal, cfg.Ways)
	}
	sets := linesTotal / cfg.Ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a power of two", cfg.Name, sets)
	}
	c := &Cache{
		cfg:       cfg,
		sets:      sets,
		ways:      cfg.Ways,
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		words:     make([]uint64, sets*cfg.Ways),
		partition: Unpartitioned,
	}
	p, err := NewPolicy(cfg.Policy, sets, cfg.Ways)
	if err != nil {
		return nil, fmt.Errorf("cache %s: %w", cfg.Name, err)
	}
	c.policy = p
	if l, ok := p.(*trueLRU); ok {
		c.lru = l
	}
	if cfg.Profiled {
		if cfg.InlineProfiler {
			c.profiler = NewInlineProfiler(cfg.Ways)
		} else {
			c.profiler = NewProfiler(sets, cfg.Ways, cfg.ProfilerSampleShift)
		}
	}
	return c, nil
}

// MustNew is New for static configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the configured cache name.
func (c *Cache) Name() string { return c.cfg.Name }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Latency returns the access latency in cycles.
func (c *Cache) Latency() uint64 { return c.cfg.Latency }

// Profiler returns the attached stack-distance profiler, or nil.
func (c *Cache) Profiler() *Profiler { return c.profiler }

// Partition returns the current data-way allocation (Unpartitioned if off).
func (c *Cache) Partition() int { return c.partition }

// SetIntrospect attaches an attribution probe, keyed by line address and
// type (see lineKey).
func (c *Cache) SetIntrospect(p *introspect.Probe) { c.ip = p }

// lineKey is the attribution identity of one cached line: its line address
// plus the type bit, so a POM line and a data line can never alias.
func (c *Cache) lineKey(set int, tag uint64, typ LineType) uint64 {
	return (tag<<c.setShift|uint64(set))<<1 | uint64(typ)
}

// RegisterMetrics publishes the cache's per-type counters and live
// partition state into an observability group. Closures keep the reads
// live (see cpu.RegisterMetrics).
func (c *Cache) RegisterMetrics(g *obs.Group) {
	g.Counter("data_hits", func() uint64 { return c.Stats.ByType[Data].Hits.Value() })
	g.Counter("data_misses", func() uint64 { return c.Stats.ByType[Data].Misses.Value() })
	g.Counter("tlb_hits", func() uint64 { return c.Stats.ByType[Translation].Hits.Value() })
	g.Counter("tlb_misses", func() uint64 { return c.Stats.ByType[Translation].Misses.Value() })
	g.Counter("data_insertions", func() uint64 { return c.Stats.Insertions[Data].Value() })
	g.Counter("tlb_insertions", func() uint64 { return c.Stats.Insertions[Translation].Value() })
	g.Counter("writebacks", func() uint64 { return c.Stats.Writebacks.Value() })
	g.Gauge("data_ways", func() float64 { return float64(c.partition) })
	g.Gauge("tlb_line_frac", func() float64 {
		tlbLines, valid := c.Occupancy()
		if valid == 0 {
			return 0
		}
		return float64(tlbLines) / float64(valid)
	})
}

// SetPartition sets the number of ways allocated to data lines. Values are
// clamped to [1, ways-1] so each type always retains at least one way, as
// Algorithm 1 does via its Nmin bound. Passing Unpartitioned disables
// enforcement. Per §3.1, repartitioning moves no resident lines; it only
// changes future victim selection.
func (c *Cache) SetPartition(n int) {
	if n == Unpartitioned {
		c.partition = Unpartitioned
		return
	}
	if n < 1 {
		n = 1
	}
	if n > c.ways-1 {
		n = c.ways - 1
	}
	c.partition = n
}

func (c *Cache) index(addr mem.PAddr) (set int, tag uint64) {
	lineAddr := uint64(addr) >> mem.LineShift
	return int(lineAddr & uint64(c.sets-1)), lineAddr >> c.setShift
}

// Lookup probes the cache for addr, updating replacement state, statistics
// and the profiler. All ways are scanned regardless of the partition (§3.1
// "Cache Lookup"). write marks the line dirty on a hit.
func (c *Cache) Lookup(addr mem.PAddr, typ LineType, write bool) bool {
	c.Stats.Lookups.Inc()
	set, tag := c.index(addr)
	base := set * c.ways
	if c.profiler != nil && !c.profiler.Inline() {
		c.profiler.Access(set, tag, typ)
	}
	words := c.words[base : base+c.ways]
	for w := range words {
		wd := words[w]
		if wd&wordValid != 0 && wd>>wordTagSh == tag {
			c.Stats.ByType[typ].Hit()
			if c.ip != nil {
				c.ip.Hit(set, c.lineKey(set, tag, typ))
			}
			if c.profiler != nil && c.profiler.Inline() {
				c.profiler.RecordPos(typ, c.policy.StackPos(set, w))
			}
			if write {
				words[w] = wd | wordDirty
			}
			c.touch(set, w)
			return true
		}
	}
	c.Stats.ByType[typ].Miss()
	if c.ip != nil {
		c.ip.Miss(set, c.lineKey(set, tag, typ))
	}
	if c.profiler != nil && c.profiler.Inline() {
		c.profiler.RecordMiss(typ)
	}
	return false
}

// SetIndex returns the set addr maps to; DIP's set-dueling needs it.
func (c *Cache) SetIndex(addr mem.PAddr) int {
	set, _ := c.index(addr)
	return set
}

// MarkDirty finds addr and marks it dirty, updating recency but not the
// hit/miss statistics or profilers. The writeback path from an upper cache
// level uses it so that victim traffic does not pollute the demand-stream
// profiling the partitioning decisions are based on.
func (c *Cache) MarkDirty(addr mem.PAddr) bool {
	set, tag := c.index(addr)
	way := c.wayOf(set, tag)
	if way < 0 {
		return false
	}
	c.words[set*c.ways+way] |= wordDirty
	c.touch(set, way)
	return true
}

// ResetStats zeroes the hit/miss/insertion/writeback counters (warmup
// boundary); cache contents and replacement state are untouched.
func (c *Cache) ResetStats() { c.Stats = Stats{} }

// Peek reports whether addr is present without touching any state; tests
// use it.
func (c *Cache) Peek(addr mem.PAddr) bool {
	return c.wayOf(c.index(addr)) >= 0
}

// victimRange returns the way range [lo, hi) eligible for eviction when
// inserting a line of the given type under the current partition.
func (c *Cache) victimRange(typ LineType) (lo, hi int) {
	if c.partition == Unpartitioned {
		return 0, c.ways
	}
	if typ == Data {
		return 0, c.partition
	}
	return c.partition, c.ways
}

// Fill inserts addr after a miss, evicting within the partition's way range
// for typ. It returns the writeback for the displaced dirty line, if any.
// Filling an address that is already resident refreshes its state instead
// of duplicating it.
func (c *Cache) Fill(addr mem.PAddr, typ LineType, dirty bool) Writeback {
	set, tag := c.index(addr)
	way := c.wayOf(set, tag)
	if way < 0 {
		wb, _ := c.insert(set, tag, typ, dirty)
		return wb
	}
	// Already present (e.g. two outstanding misses to one line): refresh.
	i := set*c.ways + way
	nw := c.words[i]&^wordTyp | uint64(typ)<<2
	if dirty {
		nw |= wordDirty
	}
	c.words[i] = nw
	c.touch(set, way)
	return Writeback{}
}

// FillMissed is Fill for callers that have just proven the line absent —
// a Lookup, Peek or MarkDirty of addr returned a miss with no intervening
// operation on this cache — so it skips Fill's already-present refresh
// scan. The invariants build verifies the proof and reports a false one
// through CheckStructure.
func (c *Cache) FillMissed(addr mem.PAddr, typ LineType, dirty bool) Writeback {
	wb, _, _ := c.fillMissed(addr, typ, dirty)
	return wb
}

// fillMissed is FillMissed also returning the set and way filled.
func (c *Cache) fillMissed(addr mem.PAddr, typ LineType, dirty bool) (wb Writeback, set, way int) {
	set, tag := c.index(addr)
	if checkAbsence && c.absenceBroken == "" && c.wayOf(set, tag) >= 0 {
		c.absenceBroken = fmt.Sprintf("FillMissed(%#x): line already resident", uint64(addr))
	}
	wb, way = c.insert(set, tag, typ, dirty)
	return wb, set, way
}

// FillQuietMissed is FillMissed without counting an insertion in the
// demand statistics — used for writeback allocations from an upper level.
func (c *Cache) FillQuietMissed(addr mem.PAddr, typ LineType, dirty bool) Writeback {
	wb := c.FillMissed(addr, typ, dirty)
	if c.Stats.Insertions[typ] > 0 {
		c.Stats.Insertions[typ]--
	}
	return wb
}

// FillAtMissed is FillMissed with an explicit insertion recency:
// promote=false inserts at LRU position (bimodal/DIP-style insertion),
// promote=true at MRU. Victim selection is identical to FillMissed.
func (c *Cache) FillAtMissed(addr mem.PAddr, typ LineType, dirty, promote bool) Writeback {
	wb, set, way := c.fillMissed(addr, typ, dirty)
	if !promote {
		c.policy.Demote(set, way)
	}
	return wb
}

// addrOf reconstructs a line-aligned physical address from set and tag.
func (c *Cache) addrOf(set int, tag uint64) mem.PAddr {
	return mem.PAddr((tag<<c.setShift | uint64(set)) << mem.LineShift)
}

// Occupancy counts valid lines by type — the measurement behind Figure 3
// ("periodically the simulator scanned the caches to record the fraction
// of TLB entries held in them").
func (c *Cache) Occupancy() (tlbLines, validLines int) {
	for _, wd := range c.words {
		if wd&wordValid != 0 {
			validLines++
			if wordType(wd) == Translation {
				tlbLines++
			}
		}
	}
	return tlbLines, validLines
}

// TypeInWays counts, for verification, how many valid lines of each type
// currently sit inside and outside the data partition. After enough
// post-repartition traffic, stale lines drain naturally (§3.1 discussion of
// cases (a) and (b)).
func (c *Cache) TypeInWays() (dataInDataWays, dataInTLBWays, tlbInDataWays, tlbInTLBWays int) {
	n := c.partition
	if n == Unpartitioned {
		n = c.ways
	}
	for i, wd := range c.words {
		if wd&wordValid == 0 {
			continue
		}
		inData := i%c.ways < n
		switch {
		case wordType(wd) == Data && inData:
			dataInDataWays++
		case wordType(wd) == Data && !inData:
			dataInTLBWays++
		case wordType(wd) == Translation && inData:
			tlbInDataWays++
		default:
			tlbInTLBWays++
		}
	}
	return
}

// CheckConservation verifies the cache's counter conservation law: the
// per-type hits and misses must sum to the independent Lookups counter.
// It returns a detail string when broken ("" while the invariant holds).
func (c *Cache) CheckConservation() string {
	var hm uint64
	for t := range c.Stats.ByType {
		hm += c.Stats.ByType[t].Accesses()
	}
	if l := c.Stats.Lookups.Value(); hm != l {
		return fmt.Sprintf("per-type hits+misses(%d) != lookups(%d)", hm, l)
	}
	return ""
}

// CheckStructure verifies the cache's structural invariants: every
// per-set valid count within associativity (implied by storage), total
// occupancy within capacity, the two independent occupancy scans
// (Occupancy and TypeInWays) in agreement, and the way partition summing
// to the associativity with each type holding at least one way; the
// invariants build adds the FillMissed absence proofs. It returns a detail
// string when broken ("" while the invariants hold).
func (c *Cache) CheckStructure() string {
	if c.absenceBroken != "" {
		return c.absenceBroken
	}
	tlbLines, valid := c.Occupancy()
	if cap := c.sets * c.ways; valid > cap {
		return fmt.Sprintf("occupancy %d exceeds capacity %d", valid, cap)
	}
	dd, dt, td, tt := c.TypeInWays()
	if sum := dd + dt + td + tt; sum != valid {
		return fmt.Sprintf("way-scan count %d != occupancy scan %d", sum, valid)
	}
	if byType := td + tt; byType != tlbLines {
		return fmt.Sprintf("tlb way-scan count %d != tlb occupancy %d", byType, tlbLines)
	}
	if n := c.partition; n != Unpartitioned {
		dataWays, tlbWays := n, c.ways-n
		if dataWays < 1 || tlbWays < 1 || dataWays+tlbWays != c.ways {
			return fmt.Sprintf("partition data(%d)+tlb(%d) != ways(%d)", dataWays, tlbWays, c.ways)
		}
	}
	return ""
}

// CorruptPartitionForTest forces an out-of-range partition value,
// bypassing SetPartition's clamping — the seeded bug the invariant layer
// must catch. Tests and the sim.corrupt chaos point use it.
func (c *Cache) CorruptPartitionForTest() { c.partition = c.ways + 1 }

// Flush invalidates every line (used between experiment phases); dirty
// contents are discarded, as the simulator tracks no data bytes.
func (c *Cache) Flush() {
	clear(c.words)
}
