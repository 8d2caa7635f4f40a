package tlb

import (
	"reflect"
	"sort"
	"testing"

	"github.com/csalt-sim/csalt/internal/mem"
	"github.com/csalt-sim/csalt/internal/snapshot"
)

// Test-only reference models for the packed TLB and POM-TLB layouts: one
// plain struct per entry, global LRU sequence numbers, no packing tricks,
// no skipped probes. FuzzTLBModel and FuzzPOMModel drive a model and the
// production structure with the same random operation sequence on a small
// geometry and require identical return values, counters, utilization and
// saved state after every operation.

// modelEntry is one translation.
type modelEntry struct {
	vpn   uint64
	asid  mem.ASID
	frame mem.PAddr
	size  mem.PageSize
	seq   uint64
	valid bool
}

func (e *modelEntry) matches(vpn uint64, asid mem.ASID, size mem.PageSize) bool {
	return e.valid && e.vpn == vpn && e.asid == asid && e.size == size
}

// modelSet is a naive set-associative store with global-sequence LRU.
type modelSet struct {
	ways    int
	entries []modelEntry
	next    uint64
}

// probe returns the frame of a matching entry, refreshing its recency.
func (m *modelSet) probe(set int, vpn uint64, asid mem.ASID, size mem.PageSize) (mem.PAddr, bool) {
	for i := set * m.ways; i < (set+1)*m.ways; i++ {
		if e := &m.entries[i]; e.matches(vpn, asid, size) {
			m.next++
			e.seq = m.next
			return e.frame, true
		}
	}
	return 0, false
}

// insert refreshes a matching entry in place, else fills the first invalid
// way, else replaces the lowest-sequence way. It reports whether it
// refreshed.
func (m *modelSet) insert(set int, vpn uint64, asid mem.ASID, frame mem.PAddr, size mem.PageSize) (refreshed bool) {
	ways := m.entries[set*m.ways : (set+1)*m.ways]
	m.next++
	for i := range ways {
		if ways[i].matches(vpn, asid, size) {
			ways[i].frame, ways[i].seq = frame, m.next
			return true
		}
	}
	victim := -1
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := range ways {
			if ways[i].seq < ways[victim].seq {
				victim = i
			}
		}
	}
	ways[victim] = modelEntry{vpn: vpn, asid: asid, frame: frame, size: size, seq: m.next, valid: true}
	return false
}

func (m *modelSet) valid() int {
	n := 0
	for i := range m.entries {
		if m.entries[i].valid {
			n++
		}
	}
	return n
}

// modelTLB mirrors TLB.
type modelTLB struct {
	modelSet
	sets               int
	hits, misses, lkup uint64
}

func newModelTLB(entries, ways int) *modelTLB {
	return &modelTLB{modelSet: modelSet{ways: ways, entries: make([]modelEntry, entries)}, sets: entries / ways}
}

func (m *modelTLB) lookup(v mem.VAddr, asid mem.ASID) (mem.PAddr, mem.PageSize, bool) {
	m.lkup++
	for _, size := range []mem.PageSize{mem.Page4K, mem.Page2M} {
		vpn := mem.PageNumber(v, size)
		if frame, ok := m.probe(int(vpn%uint64(m.sets)), vpn, asid, size); ok {
			m.hits++
			return frame, size, true
		}
	}
	m.misses++
	return 0, 0, false
}

func (m *modelTLB) insertV(v mem.VAddr, asid mem.ASID, frame mem.PAddr, size mem.PageSize) {
	vpn := mem.PageNumber(v, size)
	m.insert(int(vpn%uint64(m.sets)), vpn, asid, frame, size)
}

// state renders the model in snapshot form.
func (m *modelTLB) state() snapshot.TLBState {
	n := len(m.entries)
	st := snapshot.TLBState{
		KM: make([]uint64, n), Frames: make([]uint64, n), Seqs: make([]uint64, n),
		Next: m.next, Acc: snapshot.HitRate{Hits: m.hits, Misses: m.misses}, Lookups: m.lkup,
	}
	for i, e := range m.entries {
		if e.valid {
			st.KM[i] = packKM(e.vpn, e.asid, e.size)
			st.Frames[i] = uint64(e.frame)
			st.Seqs[i] = e.seq
			st.NBySize[e.size]++
		}
	}
	return st
}

// modelPOM mirrors POM over the production set hash.
type modelPOM struct {
	modelSet
	setOf                       func(vpn uint64, asid mem.ASID, size mem.PageSize) uint64
	hits, misses, lkup, inserts uint64
}

func newModelPOM(p *POM) *modelPOM {
	return &modelPOM{
		modelSet: modelSet{ways: EntriesPerLine, entries: make([]modelEntry, p.Sets()*EntriesPerLine)},
		setOf:    p.setOf,
	}
}

func (m *modelPOM) lookup(v mem.VAddr, asid mem.ASID, sizes []mem.PageSize) (mem.PAddr, mem.PageSize, bool) {
	m.lkup++
	for _, size := range sizes {
		vpn := mem.PageNumber(v, size)
		if frame, ok := m.probe(int(m.setOf(vpn, asid, size)), vpn, asid, size); ok {
			m.hits++
			return frame, size, true
		}
	}
	m.misses++
	return 0, 0, false
}

func (m *modelPOM) insertV(v mem.VAddr, asid mem.ASID, frame mem.PAddr, size mem.PageSize) {
	vpn := mem.PageNumber(v, size)
	if refreshed := m.insert(int(m.setOf(vpn, asid, size)), vpn, asid, frame, size); !refreshed {
		m.inserts++
	}
}

// state renders the model in snapshot form: each set's valid entries get
// in-set ranks by descending sequence number (MRU = EntriesPerLine-1).
func (m *modelPOM) state() snapshot.POMState {
	st := snapshot.POMState{
		FW:  make([]uint64, len(m.entries)/EntriesPerLine*pomSetStride),
		Acc: snapshot.HitRate{Hits: m.hits, Misses: m.misses}, Inserts: m.inserts, Lookups: m.lkup,
	}
	for set := 0; set*EntriesPerLine < len(m.entries); set++ {
		ways := m.entries[set*EntriesPerLine : (set+1)*EntriesPerLine]
		var order []int
		for w := range ways {
			if ways[w].valid {
				order = append(order, w)
			}
		}
		sort.Slice(order, func(i, j int) bool { return ways[order[i]].seq > ways[order[j]].seq })
		for pos, w := range order {
			e := ways[w]
			rank := uint64(EntriesPerLine - 1 - pos)
			st.FW[set*pomSetStride+w] = packPOM(e.vpn, e.asid, e.size) | rank<<pomRankSh
			st.FW[set*pomSetStride+EntriesPerLine+w] = uint64(e.frame)
			st.NBySize[e.size]++
		}
	}
	return st
}

// opReader decodes a fuzz input into operation parameters; reads past the
// end return zero.
type opReader struct {
	b []byte
	i int
}

func (r *opReader) more() bool { return r.i < len(r.b) }

func (r *opReader) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

// addr picks a virtual address from 4 x 2 MB regions of 16 pages each, so
// 4 KB and 2 MB entries of the same region coexist and alias.
func (r *opReader) addr() mem.VAddr {
	b := r.next()
	return mem.VAddr(uint64(b>>4&3)<<mem.PageShift2M | uint64(b&15)<<mem.PageShift4K | uint64(b>>6)<<4)
}

func (r *opReader) asid() mem.ASID { return mem.ASID(r.next() % 3) }

func (r *opReader) size() mem.PageSize {
	if r.next()%4 == 0 {
		return mem.Page2M
	}
	return mem.Page4K
}

// modelSeeds are the fuzz seed corpus: short hand-picked sequences plus
// long pseudo-random ones that fill every set several times over.
func modelSeeds() [][]byte {
	seeds := [][]byte{
		{},
		{1, 0x21, 1, 7, 0, 0, 0x21, 1},
		{1, 0x05, 0, 9, 1, 1, 0x05, 0, 3, 1, 0, 0x05, 0},
	}
	for _, n := range []int{64, 400, 2000} {
		b := make([]byte, n)
		x := uint64(n)*0x9E3779B97F4A7C15 + 1
		for i := range b {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			b[i] = byte(x)
		}
		seeds = append(seeds, b)
	}
	return seeds
}

func FuzzTLBModel(f *testing.F) {
	for _, s := range modelSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		tl := MustNew(Config{Name: "fz", Entries: 16, Ways: 4})
		m := newModelTLB(16, 4)
		r := &opReader{b: ops}
		for step := 0; r.more(); step++ {
			switch r.next() % 2 {
			case 0:
				v, asid := r.addr(), r.asid()
				f1, s1, ok1 := tl.Lookup(v, asid)
				f2, s2, ok2 := m.lookup(v, asid)
				if f1 != f2 || s1 != s2 || ok1 != ok2 {
					t.Fatalf("step %d: Lookup(%#x, %d) = %#x,%v,%v; model %#x,%v,%v", step, v, asid, f1, s1, ok1, f2, s2, ok2)
				}
			case 1:
				v, asid, size := r.addr(), r.asid(), r.size()
				frame := mem.PAddr(r.next()) << mem.PageShift4K
				tl.Insert(v, asid, frame, size)
				m.insertV(v, asid, frame, size)
			}
			if got, want := tl.SaveState(), m.state(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: state diverged from model\n  got   %+v\n  model %+v", step, got, want)
			}
		}
	})
}

func FuzzPOMModel(f *testing.F) {
	for _, s := range modelSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		p := MustNewPOM(0x4000_0000, 4*mem.LineSize) // 4 sets x 4 ways
		m := newModelPOM(p)
		r := &opReader{b: ops}
		for step := 0; r.more(); step++ {
			switch r.next() % 3 {
			case 0:
				v, asid := r.addr(), r.asid()
				f1, ok1 := p.Lookup(v, asid)
				f2, _, ok2 := m.lookup(v, asid, []mem.PageSize{mem.Page4K})
				if f1 != f2 || ok1 != ok2 {
					t.Fatalf("step %d: Lookup(%#x, %d) = %#x,%v; model %#x,%v", step, v, asid, f1, ok1, f2, ok2)
				}
			case 1:
				v, asid := r.addr(), r.asid()
				f1, s1, ok1 := p.LookupAnySize(v, asid)
				f2, s2, ok2 := m.lookup(v, asid, []mem.PageSize{mem.Page4K, mem.Page2M})
				if f1 != f2 || s1 != s2 || ok1 != ok2 {
					t.Fatalf("step %d: LookupAnySize(%#x, %d) = %#x,%v,%v; model %#x,%v,%v", step, v, asid, f1, s1, ok1, f2, s2, ok2)
				}
			case 2:
				v, asid, size := r.addr(), r.asid(), r.size()
				frame := mem.PAddr(r.next()) << mem.PageShift4K
				p.InsertSized(v, asid, frame, size)
				m.insertV(v, asid, frame, size)
			}
			if got, want := p.Utilization(), float64(m.valid())/float64(len(m.entries)); got != want {
				t.Fatalf("step %d: Utilization = %v, model %v", step, got, want)
			}
			if got, want := p.SaveState(), m.state(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: state diverged from model\n  got   %+v\n  model %+v", step, got, want)
			}
		}
	})
}
