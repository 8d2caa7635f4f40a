package pagetable

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/csalt-sim/csalt/internal/mem"
)

// refTable is the straightforward map-based radix table the production
// Table replaced: every node's entries live in a map keyed by slot, and
// interior entries name their child by frame address, resolved through a
// table-wide frame→node map. It is kept as the oracle FuzzTableModel
// compares the popcount-indexed layout against, operation by operation.
type refTable struct {
	levels int
	alloc  FrameAlloc
	root   *refNode
	nodes  map[mem.PAddr]*refNode

	nodeCount int
	mapped4K  uint64
	mapped2M  uint64
}

type refEntry struct {
	present bool
	leaf    bool
	next    mem.PAddr // next node frame, or mapped frame when leaf
	size    mem.PageSize
}

type refNode struct {
	frame   mem.PAddr
	entries map[int]refEntry
}

func newRefTable(alloc FrameAlloc, levels int) (*refTable, error) {
	if levels != 4 && levels != 5 {
		return nil, fmt.Errorf("pagetable: unsupported depth %d (want 4 or 5)", levels)
	}
	t := &refTable{levels: levels, alloc: alloc, nodes: make(map[mem.PAddr]*refNode)}
	root, err := t.newNode()
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

func (t *refTable) newNode() (*refNode, error) {
	frame, err := t.alloc.Alloc4K()
	if err != nil {
		return nil, fmt.Errorf("pagetable: allocating node: %w", err)
	}
	n := &refNode{frame: frame, entries: make(map[int]refEntry, 8)}
	t.nodes[frame] = n
	t.nodeCount++
	return n, nil
}

func (t *refTable) Map(v mem.VAddr, frame mem.PAddr, size mem.PageSize) error {
	if uint64(frame)&(size.Bytes()-1) != 0 {
		return fmt.Errorf("pagetable: frame %#x not aligned to %s page", frame, size)
	}
	stop := leafLevel(size)
	n := t.root
	for level := t.levels; level > stop; level-- {
		idx := index(v, level)
		e := n.entries[idx]
		if e.present && e.leaf {
			return fmt.Errorf("pagetable: %#x crosses existing %s leaf at level %d", v, e.size, level)
		}
		if !e.present {
			child, err := t.newNode()
			if err != nil {
				return err
			}
			e = refEntry{present: true, next: child.frame}
			n.entries[idx] = e
		}
		n = t.nodes[e.next]
	}
	idx := index(v, stop)
	if e, ok := n.entries[idx]; ok && e.present {
		if e.leaf && e.next == frame && e.size == size {
			return nil
		}
		return fmt.Errorf("pagetable: %#x already mapped", v)
	}
	n.entries[idx] = refEntry{present: true, leaf: true, next: frame, size: size}
	if size == mem.Page2M {
		t.mapped2M++
	} else {
		t.mapped4K++
	}
	return nil
}

func (t *refTable) Lookup(v mem.VAddr) (mem.PAddr, mem.PageSize, bool) {
	n := t.root
	for level := t.levels; level >= 1; level-- {
		e := n.entries[index(v, level)]
		if !e.present {
			return 0, 0, false
		}
		if e.leaf {
			return e.next, e.size, true
		}
		n = t.nodes[e.next]
	}
	return 0, 0, false
}

func (t *refTable) Translate(v mem.VAddr) (mem.PAddr, bool) {
	frame, size, ok := t.Lookup(v)
	if !ok {
		return 0, false
	}
	return frame + mem.PAddr(mem.PageOffset(v, size)), true
}

func (t *refTable) Walk(v mem.VAddr, steps []Step) ([]Step, mem.PAddr, mem.PageSize, bool) {
	n := t.root
	for level := t.levels; level >= 1; level-- {
		pte := n.frame + mem.PAddr(index(v, level)*entryBytes)
		steps = append(steps, Step{Addr: pte, Level: level})
		e := n.entries[index(v, level)]
		if !e.present {
			return steps, 0, 0, false
		}
		if e.leaf {
			return steps, e.next, e.size, true
		}
		n = t.nodes[e.next]
	}
	return steps, 0, 0, false
}

// modelVA turns a fuzz byte pair into a virtual address drawn from a few
// clustered regions, so that sequences share interior nodes, collide on
// slots, reach the 5-level index bits and straddle 2 MB boundaries. lo
// and one bit of sel pick the level-1 slot, so every word of a node's
// present bitmap is reachable.
func modelVA(sel, lo byte) mem.VAddr {
	bases := [...]uint64{
		0,              // bottom of the address space
		0x40000000,     // 1 GB: shares upper levels with region 0
		0x7f0000000000, // top of the 48-bit space
		0x1ff000000000, // beyond 48 bits: distinct only in a 5-level table
		0x200000 - 0x4000,
	}
	base := bases[int(sel&7)%len(bases)]
	region := uint64(sel>>3&3) << mem.PageShift2M
	page := (uint64(lo)<<1 | uint64(sel>>5&1)) << mem.PageShift4K
	off := uint64(sel>>6) * 0x111
	return mem.VAddr(base + region + page + off)
}

// FuzzTableModel drives the production Table and the map-based reference
// with the same operation sequence, each on an identically built frame
// allocator, and requires identical results after every operation: Map's
// error nil-ness, Lookup/Translate/Walk returns (failed walks' partial
// steps included), NodeCount and MappedPages. A small allocator makes
// node-allocation failures part of the space too.
func FuzzTableModel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{1, 0, 1, 8, 0, 1, 1, 9, 0, 0, 2, 3, 3, 0, 3, 1})
	f.Add([]byte{0x80, 1, 2, 0, 0, 1, 2, 7, 1, 1, 2, 0, 0, 4, 1, 2, 2, 3, 1, 2})
	f.Add([]byte{0x81, 0, 3, 0, 0, 3, 3, 0, 3, 2, 3, 0, 2, 0, 3, 0})
	f.Add([]byte{0x40, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 5})
	// One leaf node filled out of slot order, in bitmap words 5 then 2,
	// then lookups and walks of both: the second insert must shift the
	// first, and each rank must count every present word below.
	f.Add([]byte{0, 0, 0, 165, 3, 0, 0, 65, 2, 3, 0, 65, 0, 3, 0, 165, 0, 4, 0, 65, 0, 4, 0, 165, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		hdr := data[0]
		data = data[1:]
		levels := 4 + int(hdr&1)
		// A 2 MB node region holds 512 nodes; bit 6 pre-spends all but 8
		// of them, so a short input can run the allocator dry mid-Map.
		// Bit 7 scrambles the frame order.
		allocSize := uint64(2 << 20)
		nodeAlloc := func() *mem.FrameAllocator {
			a := mem.NewFrameAllocator(0x100000000, allocSize, hdr&0x80 != 0)
			if hdr&0x40 != 0 {
				for i := 0; i < 512-8; i++ {
					if _, err := a.Alloc4K(); err != nil {
						t.Fatal(err)
					}
				}
			}
			return a
		}
		got, err1 := New(nodeAlloc(), levels)
		want, err2 := newRefTable(nodeAlloc(), levels)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("New: err %v, reference err %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		var gotSteps, wantSteps []Step
		for i := 0; i+3 < len(data); i += 4 {
			op, sel, lo, fr := data[i], data[i+1], data[i+2], data[i+3]
			v := modelVA(sel, lo)
			switch op % 5 {
			case 0, 1: // Map 4K
				frame := mem.PAddr(0x800000000 + uint64(fr&15)<<mem.PageShift4K)
				if op%5 == 1 && fr&0x80 != 0 {
					frame += 0x800 // misaligned
				}
				e1, e2 := got.Map(v, frame, mem.Page4K), want.Map(v, frame, mem.Page4K)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("op %d Map4K(%#x,%#x): err %v, reference err %v", i/4, v, frame, e1, e2)
				}
			case 2: // Map 2M
				frame := mem.PAddr(0x800000000 + uint64(fr&3)<<mem.PageShift2M)
				if fr&0x80 != 0 {
					frame += mem.PageSize4K // misaligned
				}
				e1, e2 := got.Map(v, frame, mem.Page2M), want.Map(v, frame, mem.Page2M)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("op %d Map2M(%#x,%#x): err %v, reference err %v", i/4, v, frame, e1, e2)
				}
			case 3: // Lookup and Translate
				f1, s1, ok1 := got.Lookup(v)
				f2, s2, ok2 := want.Lookup(v)
				if f1 != f2 || s1 != s2 || ok1 != ok2 {
					t.Fatalf("op %d Lookup(%#x) = %#x,%v,%v; reference %#x,%v,%v", i/4, v, f1, s1, ok1, f2, s2, ok2)
				}
				p1, ok1 := got.Translate(v)
				p2, ok2 := want.Translate(v)
				if p1 != p2 || ok1 != ok2 {
					t.Fatalf("op %d Translate(%#x) = %#x,%v; reference %#x,%v", i/4, v, p1, ok1, p2, ok2)
				}
			case 4: // Walk, appending to a non-empty prefix
				prefix := Step{Addr: mem.PAddr(lo)<<8 | mem.PAddr(fr), Level: 9}
				var f1, f2 mem.PAddr
				var s1, s2 mem.PageSize
				var ok1, ok2 bool
				gotSteps, f1, s1, ok1 = got.Walk(v, append(gotSteps[:0], prefix))
				wantSteps, f2, s2, ok2 = want.Walk(v, append(wantSteps[:0], prefix))
				if f1 != f2 || s1 != s2 || ok1 != ok2 || !reflect.DeepEqual(gotSteps, wantSteps) {
					t.Fatalf("op %d Walk(%#x) = %v,%#x,%v,%v; reference %v,%#x,%v,%v",
						i/4, v, gotSteps, f1, s1, ok1, wantSteps, f2, s2, ok2)
				}
			}
			if g, w := got.NodeCount(), want.nodeCount; g != w {
				t.Fatalf("op %d: NodeCount %d, reference %d", i/4, g, w)
			}
			g4, g2 := got.MappedPages()
			if g4 != want.mapped4K || g2 != want.mapped2M {
				t.Fatalf("op %d: MappedPages %d,%d; reference %d,%d", i/4, g4, g2, want.mapped4K, want.mapped2M)
			}
			if got.Root() != want.root.frame {
				t.Fatalf("op %d: Root %#x, reference %#x", i/4, got.Root(), want.root.frame)
			}
		}
	})
}
