package introspect

import (
	"fmt"
)

// fillRec is the generation-stamped ownership record of one resident
// entry: who installed it and in which context-switch generation.
type fillRec struct {
	owner uint64
	gen   uint64
}

// evictRec remembers how a key left the structure, pending its next miss.
type evictRec struct {
	cross bool // evicted on behalf of a different address space than its owner
}

// Probe mirrors one set-associative structure (a TLB level, the POM-TLB,
// or a cache) for miss-cause classification. The mirror is three maps and
// a shadow LRU keyed by the same packed words the structures store:
//
//   - seen: every key ever observed (hit or miss) — first-miss keys are
//     compulsory;
//   - owner: resident keys → generation-stamped installing ASID;
//   - evict: keys displaced since their last access, flagged cross-ASID
//     when the displacing access belonged to a different address space —
//     the context-switch-induced cold-refill class;
//   - shadow: a same-capacity fully-associative true-LRU, touched by
//     every access, splitting conflict (shadow holds the key) from
//     capacity (it does not) for misses the first two classes don't claim.
//
// All hook methods are nil-receiver safe.
type Probe struct {
	p         *Plane
	name      string
	sets      int
	translate bool // L2 TLB: misses set the owning core's translate-stall cause

	seen   map[uint64]struct{}
	owner  map[uint64]fillRec
	evict  map[uint64]evictRec
	shadow shadowLRU

	hits        uint64
	miss        [NumCauses]uint64
	evictsTotal uint64
	crossEvicts uint64
	genAgeSum   uint64 // generations survived, summed over evictions

	heatAcc   []uint64 // per-set accesses
	heatMiss  []uint64 // per-set misses
	heatEvict []uint64 // per-set evictions
}

// NewProbe creates and registers a structure probe. sets and capacity
// give the mirrored geometry (capacity sizes the shadow LRU); translate
// marks the probe whose misses set the core's translate-stall cause (the
// L2 TLB — the structure whose miss produces the blocking stall).
func (p *Plane) NewProbe(name string, sets, capacity int, translate bool) *Probe {
	if sets < 1 {
		sets = 1
	}
	if capacity < 1 {
		capacity = 1
	}
	pr := &Probe{
		p:         p,
		name:      name,
		sets:      sets,
		translate: translate,
		seen:      make(map[uint64]struct{}),
		owner:     make(map[uint64]fillRec),
		evict:     make(map[uint64]evictRec),
		heatAcc:   make([]uint64, sets),
		heatMiss:  make([]uint64, sets),
		heatEvict: make([]uint64, sets),
	}
	pr.shadow.init(capacity)
	p.probes = append(p.probes, pr)
	return pr
}

// Name returns the probe's registered name.
func (pr *Probe) Name() string { return pr.name }

// Hit records a lookup that hit in set with the given packed key.
func (pr *Probe) Hit(set int, key uint64) {
	if pr == nil {
		return
	}
	pr.hits++
	pr.heatAcc[set]++
	pr.seen[key] = struct{}{}
	pr.shadow.touch(key)
}

// Miss records a lookup that missed, classifying its cause. The cause is
// decided before the shadow LRU observes the access (a miss must not
// conflict-match itself), and a translate-flagged probe publishes the
// cause to the driving core's translate-stall register.
func (pr *Probe) Miss(set int, key uint64) {
	if pr == nil {
		return
	}
	pr.heatAcc[set]++
	pr.heatMiss[set]++
	cause := pr.classify(key)
	pr.miss[cause]++
	pr.shadow.touch(key)
	p := pr.p
	if pr.translate {
		p.cause[p.curCore] = cause
		p.l2MissEver++
	}
	if cause == SwitchInduced {
		p.ledger.open[p.curCore].SwitchMisses++
		p.ledger.totals.SwitchMisses++
	}
}

// classify decides one miss's cause; see the Probe doc for the order.
func (pr *Probe) classify(key uint64) Cause {
	if _, ok := pr.seen[key]; !ok {
		pr.seen[key] = struct{}{}
		return Compulsory
	}
	if rec, ok := pr.evict[key]; ok {
		delete(pr.evict, key)
		if rec.cross {
			return SwitchInduced
		}
	}
	if pr.shadow.contains(key) {
		return Conflict
	}
	return Capacity
}

// Fill records an installation performed on behalf of owner (the
// inserting ASID), generation-stamping the residency.
func (pr *Probe) Fill(set int, key uint64, owner uint64) {
	if pr == nil {
		return
	}
	pr.owner[key] = fillRec{owner: owner, gen: pr.p.gen}
}

// Evict records a valid entry displaced by an insertion performed on
// behalf of evictor. Displacements by a different address space than the
// installer are the context-switch damage the ledger charges.
func (pr *Probe) Evict(set int, key uint64, evictor uint64) {
	if pr == nil {
		return
	}
	pr.heatEvict[set]++
	pr.evictsTotal++
	rec, known := pr.owner[key]
	if known {
		delete(pr.owner, key)
		pr.genAgeSum += pr.p.gen - rec.gen
	}
	cross := known && rec.owner != evictor
	pr.evict[key] = evictRec{cross: cross}
	if cross {
		pr.crossEvicts++
		p := pr.p
		p.ledger.open[p.curCore].Evictions++
		p.ledger.totals.Evictions++
	}
}

// FillCur is Fill on behalf of the current core's scheduled ASID — the
// form cache fills use, where the installer is whoever drives the access.
func (pr *Probe) FillCur(set int, key uint64) {
	if pr == nil {
		return
	}
	p := pr.p
	pr.Fill(set, key, p.curASID[p.curCore])
}

// EvictCur is Evict on behalf of the current core's scheduled ASID.
func (pr *Probe) EvictCur(set int, key uint64) {
	if pr == nil {
		return
	}
	p := pr.p
	pr.Evict(set, key, p.curASID[p.curCore])
}

// Hits returns the measured-region hit count.
func (pr *Probe) Hits() uint64 { return pr.hits }

// Misses returns the measured-region miss count summed over causes.
func (pr *Probe) Misses() uint64 {
	var sum uint64
	for _, v := range pr.miss {
		sum += v
	}
	return sum
}

// MissesByCause returns one cause bucket.
func (pr *Probe) MissesByCause(c Cause) uint64 { return pr.miss[c] }

// CheckAgainst verifies the probe's accounting matches the mirrored
// structure's hit/miss counters exactly, returning a detail string when
// broken.
func (pr *Probe) CheckAgainst(hits, misses uint64) string {
	if pr.hits != hits {
		return fmt.Sprintf("probe %s hits %d != structure hits %d", pr.name, pr.hits, hits)
	}
	if sum := pr.Misses(); sum != misses {
		return fmt.Sprintf("probe %s miss-cause sum %d != structure misses %d", pr.name, sum, misses)
	}
	return ""
}

// resetMeasured zeroes the measured-region counters and heatmaps,
// keeping classification state (see Plane.ResetMeasured).
func (pr *Probe) resetMeasured() {
	pr.hits = 0
	pr.miss = [NumCauses]uint64{}
	pr.evictsTotal = 0
	pr.crossEvicts = 0
	pr.genAgeSum = 0
	for i := range pr.heatAcc {
		pr.heatAcc[i] = 0
	}
	for i := range pr.heatMiss {
		pr.heatMiss[i] = 0
	}
	for i := range pr.heatEvict {
		pr.heatEvict[i] = 0
	}
}

// shadowLRU is a fully-associative true-LRU of the mirrored structure's
// total capacity, updated by every access (hit or miss). An equally
// sized FA-LRU is the standard yardstick separating conflict misses
// (present here, lost only to placement) from capacity misses. Nodes
// live in a preallocated arena linked by index — once the map has grown
// to capacity, the steady-state touch path is allocation-free.
type shadowLRU struct {
	cap   int
	nodes []shadowNode
	head  int32 // MRU, -1 when empty
	tail  int32 // LRU, -1 when empty
	used  int
	pos   map[uint64]int32
}

type shadowNode struct {
	key        uint64
	prev, next int32
}

func (s *shadowLRU) init(capacity int) {
	s.cap = capacity
	s.nodes = make([]shadowNode, capacity)
	s.head, s.tail = -1, -1
	s.pos = make(map[uint64]int32, capacity)
}

// unlink detaches node i from the recency chain.
func (s *shadowLRU) unlink(i int32) {
	n := &s.nodes[i]
	if n.prev >= 0 {
		s.nodes[n.prev].next = n.next
	} else {
		s.head = n.next
	}
	if n.next >= 0 {
		s.nodes[n.next].prev = n.prev
	} else {
		s.tail = n.prev
	}
}

// pushFront makes node i the MRU.
func (s *shadowLRU) pushFront(i int32) {
	n := &s.nodes[i]
	n.prev, n.next = -1, s.head
	if s.head >= 0 {
		s.nodes[s.head].prev = i
	}
	s.head = i
	if s.tail < 0 {
		s.tail = i
	}
}

func (s *shadowLRU) touch(key uint64) {
	if i, ok := s.pos[key]; ok {
		if i != s.head {
			s.unlink(i)
			s.pushFront(i)
		}
		return
	}
	var i int32
	if s.used < s.cap {
		i = int32(s.used)
		s.used++
	} else {
		i = s.tail
		s.unlink(i)
		delete(s.pos, s.nodes[i].key)
	}
	s.nodes[i].key = key
	s.pos[key] = i
	s.pushFront(i)
}

func (s *shadowLRU) contains(key uint64) bool {
	_, ok := s.pos[key]
	return ok
}
