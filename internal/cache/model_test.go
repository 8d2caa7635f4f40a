package cache

import (
	"reflect"
	"testing"

	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/snapshot"
)

// A test-only reference model for the packed cache layout: one plain
// struct per line, its own global-sequence true LRU, and the production
// Policy for NRU and BT-pLRU. FuzzCacheModel drives the model and a
// production Cache with the same random operation sequence on a small
// geometry and requires identical return values, writebacks, counters,
// occupancy scans and saved state after every operation.

type modelLine struct {
	tag   uint64
	valid bool
	dirty bool
	typ   LineType
}

type modelCache struct {
	sets, ways int
	lines      []modelLine
	partition  int
	// seq and next are true LRU's recency (larger = more recent); policy
	// is nil then, and the production NRU or BT-pLRU otherwise.
	seq    []uint64
	next   uint64
	policy Policy
	stats  Stats
}

func newModelCache(kind PolicyKind, sets, ways int) *modelCache {
	m := &modelCache{sets: sets, ways: ways, lines: make([]modelLine, sets*ways), partition: Unpartitioned}
	if kind == PolicyLRU {
		m.seq, m.next = make([]uint64, sets*ways), 1
	} else {
		p, err := NewPolicy(kind, sets, ways)
		if err != nil {
			panic(err)
		}
		m.policy = p
	}
	return m
}

func (m *modelCache) split(addr mem.PAddr) (set int, tag uint64) {
	line := uint64(addr) >> mem.LineShift
	return int(line % uint64(m.sets)), line / uint64(m.sets)
}

func (m *modelCache) find(addr mem.PAddr) (set, way int) {
	set, tag := m.split(addr)
	for w := 0; w < m.ways; w++ {
		if ln := m.lines[set*m.ways+w]; ln.valid && ln.tag == tag {
			return set, w
		}
	}
	return set, -1
}

func (m *modelCache) touch(set, way int) {
	if m.policy != nil {
		m.policy.Touch(set, way)
		return
	}
	m.seq[set*m.ways+way] = m.next
	m.next++
}

func (m *modelCache) lookup(addr mem.PAddr, typ LineType, write bool) bool {
	m.stats.Lookups.Inc()
	set, way := m.find(addr)
	if way < 0 {
		m.stats.ByType[typ].Miss()
		return false
	}
	m.stats.ByType[typ].Hit()
	if write {
		m.lines[set*m.ways+way].dirty = true
	}
	m.touch(set, way)
	return true
}

func (m *modelCache) markDirty(addr mem.PAddr) bool {
	set, way := m.find(addr)
	if way < 0 {
		return false
	}
	m.lines[set*m.ways+way].dirty = true
	m.touch(set, way)
	return true
}

// fill refreshes a resident line, else installs addr in the partition's
// way range for typ: the first invalid way, else the policy's victim
// (true LRU: the lowest-sequence way, lowest index on ties). promote=false
// then demotes the new line to the LRU end. quiet fills are not counted as
// insertions.
func (m *modelCache) fill(addr mem.PAddr, typ LineType, dirty, promote, quiet bool) Writeback {
	set, way := m.find(addr)
	if way >= 0 {
		ln := &m.lines[set*m.ways+way]
		ln.dirty = ln.dirty || dirty
		ln.typ = typ
		m.touch(set, way)
		return Writeback{}
	}
	lo, hi := 0, m.ways
	if m.partition != Unpartitioned {
		if typ == Data {
			hi = m.partition
		} else {
			lo = m.partition
		}
	}
	victim := -1
	for w := lo; w < hi; w++ {
		if !m.lines[set*m.ways+w].valid {
			victim = w
			break
		}
	}
	if victim < 0 && m.policy != nil {
		victim = m.policy.Victim(set, lo, hi)
	} else if victim < 0 {
		victim = lo
		for w := lo; w < hi; w++ {
			if m.seq[set*m.ways+w] < m.seq[set*m.ways+victim] {
				victim = w
			}
		}
	}
	_, tag := m.split(addr)
	old := m.lines[set*m.ways+victim]
	var wb Writeback
	if old.valid && old.dirty {
		wb = Writeback{Addr: mem.PAddr((old.tag*uint64(m.sets) + uint64(set)) << mem.LineShift), Typ: old.typ, Valid: true}
		m.stats.Writebacks.Inc()
	}
	m.lines[set*m.ways+victim] = modelLine{tag: tag, valid: true, dirty: dirty, typ: typ}
	if !quiet {
		m.stats.Insertions[typ].Inc()
	}
	m.touch(set, victim)
	if !promote {
		if m.policy != nil {
			m.policy.Demote(set, victim)
		} else {
			m.seq[set*m.ways+victim] = 0
		}
	}
	return wb
}

func (m *modelCache) setPartition(n int) {
	switch {
	case n == Unpartitioned:
	case n < 1:
		n = 1
	case n > m.ways-1:
		n = m.ways - 1
	}
	m.partition = n
}

// occupancy returns Occupancy's and TypeInWays' results.
func (m *modelCache) occupancy() [6]int {
	var out [6]int
	n := m.partition
	if n == Unpartitioned {
		n = m.ways
	}
	for i, ln := range m.lines {
		if !ln.valid {
			continue
		}
		out[1]++
		inTLBWays := 0
		if i%m.ways >= n {
			inTLBWays = 1
		}
		if ln.typ == Translation {
			out[0]++
		}
		out[2+2*int(ln.typ)+inTLBWays]++
	}
	return out
}

// state renders the model in snapshot form.
func (m *modelCache) state() snapshot.CacheState {
	st := snapshot.CacheState{
		Words:      make([]uint64, len(m.lines)),
		Partition:  m.partition,
		Writebacks: m.stats.Writebacks.Value(),
		Lookups:    m.stats.Lookups.Value(),
	}
	for i, ln := range m.lines {
		if ln.valid {
			st.Words[i] = packWord(ln.tag, ln.typ, ln.dirty)
		}
	}
	if m.policy != nil {
		st.Policy = savePolicy(m.policy)
	} else {
		st.Policy = snapshot.PolicyState{Kind: PolicyLRU.String(), Seq: append([]uint64(nil), m.seq...), Next: m.next}
	}
	for t := range st.ByType {
		st.ByType[t] = hitRateState(m.stats.ByType[t])
		st.Insertions[t] = m.stats.Insertions[t].Value()
	}
	return st
}

// cacheOps decodes a fuzz input; reads past the end return zero.
type cacheOps struct {
	b []byte
	i int
}

func (r *cacheOps) more() bool { return r.i < len(r.b) }

func (r *cacheOps) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

// addr picks one of 8 tags in each of the model geometry's 4 sets; the
// returned type and flag come from the byte's top bits.
func (r *cacheOps) addr() (mem.PAddr, LineType, bool) {
	b := r.next()
	return mem.PAddr(uint64(b&31) << mem.LineShift), LineType(b >> 5 & 1), b&0x40 != 0
}

func FuzzCacheModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 1, 9, 0, 1, 0, 5, 1})
	for _, n := range []int{64, 400, 2000} {
		b := make([]byte, n)
		x := uint64(n)*0x9E3779B97F4A7C15 + 1
		for i := range b {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			b[i] = byte(x)
		}
		for kind := byte(0); kind < 3; kind++ {
			f.Add(append([]byte{kind}, b...))
		}
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := &cacheOps{b: ops}
		kind := PolicyKind(r.next() % 3)
		c := MustNew(Config{Name: "fz", SizeKB: 1, Ways: 4, Policy: kind}) // 4 sets x 4 ways
		m := newModelCache(kind, 4, 4)
		for step := 0; r.more(); step++ {
			op := r.next() % 16
			addr, typ, flag := r.addr()
			var got, want any
			switch {
			case op < 4:
				got, want = c.Lookup(addr, typ, flag), m.lookup(addr, typ, flag)
			case op == 4:
				got, want = c.MarkDirty(addr), m.markDirty(addr)
			case op < 8:
				got, want = c.Fill(addr, typ, flag), m.fill(addr, typ, flag, true, false)
			case op < 12:
				if _, way := m.find(addr); way >= 0 {
					break // the Missed fills require a proven-absent line
				}
				switch op {
				case 8, 9:
					got, want = c.FillMissed(addr, typ, flag), m.fill(addr, typ, flag, true, false)
				case 10:
					got, want = c.FillQuietMissed(addr, typ, flag), m.fill(addr, typ, flag, true, true)
				case 11:
					promote := r.next()&1 != 0
					got, want = c.FillAtMissed(addr, typ, flag, promote), m.fill(addr, typ, flag, promote, false)
				}
			case op == 12:
				n := int(addr>>mem.LineShift)%7 - 1 // Unpartitioned or 0..5
				c.SetPartition(n)
				m.setPartition(n)
			case op < 15:
				_, way := m.find(addr)
				got, want = c.Peek(addr), way >= 0
			default:
				c.Flush()
				clear(m.lines)
			}
			if got != want {
				t.Fatalf("step %d (op %d, %#x): got %+v, model %+v", step, op, addr, got, want)
			}
			if c.Stats != m.stats {
				t.Fatalf("step %d: stats %+v, model %+v", step, c.Stats, m.stats)
			}
			tl, valid := c.Occupancy()
			dd, dt, td, tt := c.TypeInWays()
			if occ := [6]int{tl, valid, dd, dt, td, tt}; occ != m.occupancy() {
				t.Fatalf("step %d: Occupancy+TypeInWays %v, model %v", step, occ, m.occupancy())
			}
			if gs, ms := c.SaveState(), m.state(); !reflect.DeepEqual(gs, ms) {
				t.Fatalf("step %d: state diverged from model\n  got   %+v\n  model %+v", step, gs, ms)
			}
			if d := c.CheckStructure(); d != "" {
				t.Fatalf("step %d: %s", step, d)
			}
		}
	})
}
