// Package pagetable implements x86-64-style multi-level radix page tables
// built in simulated physical memory. Table nodes occupy real (simulated)
// 4 KB frames, so a walk yields the physical addresses of the page-table
// entries it touches — which is what lets the simulator model PTE caching
// in the data caches, the effect at the heart of the paper's motivation
// (§2.1, Figure 2).
//
// The same type serves both dimensions of a virtualized system: the guest
// table's "physical" addresses are guest-physical (gPA), the host/EPT
// table's are host-physical (hPA). The nested walker in internal/walker
// composes the two.
//
// In host memory each node is a 512-bit present bitmap plus its present
// entries packed in slot order; a slot's entry is found by the popcount
// rank of its bit. Interior entries point straight at their child node,
// so a descent is pointer chasing with no hashing, and a node costs
// space in proportion to its present entries, not to its 512 slots.
package pagetable

import (
	"fmt"
	"math/bits"

	"github.com/csalt-sim/csalt/internal/mem"
)

const (
	entriesPerNode = 512 // 9 index bits per level
	entryBytes     = 8
)

// FrameAlloc supplies 4 KB frames for table nodes, in whatever address
// domain the table lives in.
type FrameAlloc interface {
	Alloc4K() (mem.PAddr, error)
}

// Step is one page-table entry touched during a walk: the entry's address
// (in the table's address domain) and the level it belongs to (Levels()
// down to 1; level 1 entries are leaf PTEs for 4 KB pages).
type Step struct {
	Addr  mem.PAddr
	Level int
}

// entry is one present PTE: an interior entry has a child node, a leaf
// entry has none and maps frame. A leaf's page size follows from its
// level (see leafSize).
type entry struct {
	child *node
	frame mem.PAddr
}

// node is one table node occupying a 4 KB frame. present has bit i set
// when slot i holds an entry, and entries holds the present entries in
// slot order, so slot i's entry sits at the number of present slots below
// i. Address spaces are sparse (fragmented heaps populate a handful of
// slots in most upper-level nodes), so a dense 512-entry array per node
// would cost far more memory than the bitmap, and a per-node map costs a
// hash probe on every level of every walk.
type node struct {
	frame   mem.PAddr
	present [entriesPerNode / 64]uint64
	entries []entry
}

// rank returns the position slot's entry has, or would have, in
// n.entries, and whether the slot is present.
func (n *node) rank(slot int) (int, bool) {
	w, b := slot>>6, uint(slot&63)
	r := bits.OnesCount64(n.present[w] & (1<<b - 1))
	for _, word := range n.present[:w] {
		r += bits.OnesCount64(word)
	}
	return r, n.present[w]&(1<<b) != 0
}

// get returns slot's entry, or nil when the slot is not present.
func (n *node) get(slot int) *entry {
	r, ok := n.rank(slot)
	if !ok {
		return nil
	}
	return &n.entries[r]
}

// insert fills the absent slot with e at its rank r.
func (n *node) insert(slot, r int, e entry) {
	n.present[slot>>6] |= 1 << uint(slot&63)
	n.entries = append(n.entries, entry{})
	copy(n.entries[r+1:], n.entries[r:])
	n.entries[r] = e
}

// Table is one radix page table.
type Table struct {
	levels int
	alloc  FrameAlloc
	root   *node

	nodeCount int
	mapped4K  uint64
	mapped2M  uint64
}

// New builds an empty table with the given depth (4 for x86-64, 5 for the
// extended format the paper cites as motivation).
func New(alloc FrameAlloc, levels int) (*Table, error) {
	if levels != 4 && levels != 5 {
		return nil, fmt.Errorf("pagetable: unsupported depth %d (want 4 or 5)", levels)
	}
	t := &Table{levels: levels, alloc: alloc}
	root, err := t.newNode()
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

func (t *Table) newNode() (*node, error) {
	frame, err := t.alloc.Alloc4K()
	if err != nil {
		return nil, fmt.Errorf("pagetable: allocating node: %w", err)
	}
	t.nodeCount++
	return &node{frame: frame}, nil
}

// Levels returns the table depth.
func (t *Table) Levels() int { return t.levels }

// Root returns the root node's frame address (the CR3 analogue).
func (t *Table) Root() mem.PAddr { return t.root.frame }

// NodeCount returns the number of table nodes allocated so far.
func (t *Table) NodeCount() int { return t.nodeCount }

// MappedPages returns the number of 4K and 2M mappings installed.
func (t *Table) MappedPages() (p4k, p2m uint64) { return t.mapped4K, t.mapped2M }

// index extracts the 9-bit index for the given level (levels..1).
func index(v mem.VAddr, level int) int {
	shift := uint(mem.PageShift4K) + 9*uint(level-1)
	return int(uint64(v)>>shift) & (entriesPerNode - 1)
}

// leafLevel returns the level at which a page of the given size terminates.
func leafLevel(size mem.PageSize) int {
	if size == mem.Page2M {
		return 2
	}
	return 1
}

// leafSize is leafLevel's inverse: the size of a leaf at level.
func leafSize(level int) mem.PageSize {
	if level == 2 {
		return mem.Page2M
	}
	return mem.Page4K
}

// Map installs a translation from the page containing v to frame. Frame
// must be aligned to the page size. Remapping an existing page to a
// different frame, or crossing a previously installed mapping of another
// size, is an error — the simulator never remaps.
func (t *Table) Map(v mem.VAddr, frame mem.PAddr, size mem.PageSize) error {
	if uint64(frame)&(size.Bytes()-1) != 0 {
		return fmt.Errorf("pagetable: frame %#x not aligned to %s page", frame, size)
	}
	stop := leafLevel(size)
	n := t.root
	for level := t.levels; level > stop; level-- {
		idx := index(v, level)
		r, ok := n.rank(idx)
		if !ok {
			child, err := t.newNode()
			if err != nil {
				return err
			}
			n.insert(idx, r, entry{child: child})
			n = child
			continue
		}
		e := &n.entries[r]
		if e.child == nil {
			return fmt.Errorf("pagetable: %#x crosses existing %s leaf at level %d", v, leafSize(level), level)
		}
		n = e.child
	}
	idx := index(v, stop)
	r, ok := n.rank(idx)
	if ok {
		if e := &n.entries[r]; e.child == nil && e.frame == frame {
			return nil // idempotent remap of the identical translation
		}
		return fmt.Errorf("pagetable: %#x already mapped", v)
	}
	n.insert(idx, r, entry{frame: frame})
	if size == mem.Page2M {
		t.mapped2M++
	} else {
		t.mapped4K++
	}
	return nil
}

// Lookup translates v without recording steps. It returns the mapped
// frame, the page size, and whether a mapping exists.
func (t *Table) Lookup(v mem.VAddr) (mem.PAddr, mem.PageSize, bool) {
	n := t.root
	for level := t.levels; level >= 1; level-- {
		e := n.get(index(v, level))
		if e == nil {
			return 0, 0, false
		}
		if e.child == nil {
			return e.frame, leafSize(level), true
		}
		n = e.child
	}
	return 0, 0, false
}

// Translate resolves v to a full physical address (frame plus in-page
// offset), or false if unmapped.
func (t *Table) Translate(v mem.VAddr) (mem.PAddr, bool) {
	frame, size, ok := t.Lookup(v)
	if !ok {
		return 0, false
	}
	return frame + mem.PAddr(mem.PageOffset(v, size)), true
}

// Walk translates v, appending each touched PTE's address to steps (the
// 1-D walk of Figure 2a). It returns the extended slice, the leaf frame,
// the page size and whether the translation exists; on a failed walk the
// steps up to and including the non-present entry are still returned,
// since hardware touches them before faulting.
func (t *Table) Walk(v mem.VAddr, steps []Step) ([]Step, mem.PAddr, mem.PageSize, bool) {
	n := t.root
	for level := t.levels; level >= 1; level-- {
		idx := index(v, level)
		steps = append(steps, Step{Addr: n.frame + mem.PAddr(idx*entryBytes), Level: level})
		e := n.get(idx)
		if e == nil {
			return steps, 0, 0, false
		}
		if e.child == nil {
			return steps, e.frame, leafSize(level), true
		}
		n = e.child
	}
	return steps, 0, 0, false
}
